(** Per-process file descriptor tables.

    Sthreads inherit only the descriptors named in their security policy
    (§3.1), each with read/write permission bits checked on every use.
    Descriptor targets are either VFS files or abstract byte-stream
    endpoints (sockets from the network simulator, which plugs in via the
    {!endpoint} record to avoid a dependency cycle). *)

type perm = {
  fr : bool;
  fw : bool;
}

val perm_r : perm
val perm_w : perm
val perm_rw : perm

val perm_subsumes : parent:perm -> child:perm -> bool

(** A duplex byte-stream endpoint (socket-like).  A compartment moves its
    bytes only through [Engine.fd_read] and [Engine.fd_write], which trap,
    check the descriptor's permission and the installed policy, then call
    these. *)
type endpoint = {
  ep_read : int -> bytes;  (** read up to n bytes; may block the fiber *)
  ep_write : bytes -> unit;
  ep_wait : unit -> unit;
      (** park until [ep_read] can make progress (readable, EOF, or cut).
          The engine calls it {e before} the syscall trap of a read the
          descriptor permits, so a read that parks here charges no fuel
          while idle.  An endpoint that blocks inside [ep_read] instead
          returns at once. *)
}

type target =
  | File of file_handle
  | Endpoint of endpoint
  | Null

and file_handle = {
  fh_path : string;
  mutable fh_pos : int;
}

type entry = {
  target : target;
  perm : perm;
}

type t

val create : ?limits:Rlimit.t -> unit -> t
(** [limits] charges one fd-quota unit per open descriptor (released on
    {!close}); installing past the cap raises
    {!Rlimit.Resource_exhausted}. *)

val add : t -> target -> perm -> int
(** Install a target, returning the new descriptor number. *)

val find : t -> int -> entry option

val close : t -> int -> unit
(** Drop the descriptor and its entry (the target itself stays open for
    other holders).  Numbers are never reused: {!add} keeps counting up. *)

val close_all : t -> unit
(** {!close} every descriptor, in no particular order (closing one never
    affects another), without listing them first: a reaped process's
    table. *)

val dup_into : src:t -> dst:t -> fd:int -> perm:perm -> unit
(** Copy descriptor [fd] from [src] to [dst] under the same number with
    (possibly reduced) permission [perm].
    @raise Invalid_argument if [fd] is not open in [src] or [perm] exceeds
    the source permission. *)

val install : t -> fd:int -> target -> perm -> unit
(** Install a target under a specific descriptor number (kernel use: giving
    a callgate the descriptors its creator granted it).
    @raise Invalid_argument if the number is taken. *)

val count : t -> int
val fds : t -> int list
