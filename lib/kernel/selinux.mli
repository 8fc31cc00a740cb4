(** SELinux-style system-call policy, simplified to the features Wedge uses
    (§3.1): a security identifier (SID) of the form [user:role:type] is
    attached to each sthread; the [type] (domain) names a set of permitted
    system calls, and changing SID on sthread creation requires an allowed
    domain transition in the system-wide policy. *)

type t

val create : unit -> t
(** A SID without an explicit domain entry may make any system call: the
    paper's applications grant all system calls (§5), and a deployment
    that wants a restrictive domain names it with {!allow}. *)

val allow : t -> domain:string -> syscall:string -> unit
val check : t -> sid:string -> syscall:string -> bool
val allow_transition : t -> from_:string -> to_:string -> unit
val may_transition : t -> from_:string -> to_:string -> bool
(** Identity transitions are always allowed. *)
