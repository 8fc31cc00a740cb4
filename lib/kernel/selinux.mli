(** SELinux-style system-call policy, simplified to the features Wedge uses
    (§3.1): a security identifier (SID) of the form [user:role:type] is
    attached to each sthread; the [type] (domain) names a set of permitted
    system calls, and changing SID on sthread creation requires an allowed
    domain transition in the system-wide policy. *)

type t

val create : ?default_allow:bool -> unit -> t
(** [default_allow] (default [true]) controls whether SIDs without an
    explicit domain entry may make any system call; the paper's
    applications explicitly grant all system calls (§5), so the permissive
    default mirrors that setup while tests exercise restrictive domains. *)

val allow : t -> domain:string -> syscall:string -> unit
val allow_all_syscalls : t -> domain:string -> unit
val check : t -> sid:string -> syscall:string -> bool
val allow_transition : t -> from_:string -> to_:string -> unit
val may_transition : t -> from_:string -> to_:string -> bool
(** Identity transitions are always allowed. *)
