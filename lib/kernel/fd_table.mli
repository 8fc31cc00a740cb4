(** Per-process file descriptor tables.

    Sthreads inherit only the descriptors named in their security policy
    (§3.1), each with read/write permission bits checked on every use.
    Every descriptor is a byte-stream endpoint (a socket from the network
    simulator, which plugs in via the {!endpoint} record to avoid a
    dependency cycle). *)

type perm = {
  fr : bool;
  fw : bool;
}

val perm_r : perm
val perm_w : perm
val perm_rw : perm

val perm_subsumes : parent:perm -> child:perm -> bool

(** A duplex byte-stream endpoint (socket-like).  A compartment moves its
    bytes only through [Engine.fd_read] and [Engine.fd_write_sub], which
    trap, check the descriptor's permission and the installed policy, then
    call these. *)
type endpoint = {
  ep_read : int -> bytes;  (** read up to n bytes; may block the fiber *)
  ep_write : bytes -> int -> int -> unit;
      (** [ep_write b off len] sends the [len] bytes of [b] from [off] and
          keeps no reference to [b]; the engine has checked the range *)
  ep_wait : unit -> unit;
      (** park until [ep_read] can make progress (readable, EOF, or cut).
          The engine calls it {e before} the syscall trap of a read the
          descriptor permits, so a read that parks here enters no kernel
          while idle.  An endpoint that blocks inside [ep_read] instead
          returns at once. *)
}

type entry = {
  target : endpoint;
  perm : perm;
}

type t

val create : unit -> t

val add : t -> endpoint -> perm -> int
(** Install an endpoint, returning the new descriptor number. *)

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

val install : t -> fd:int -> endpoint -> perm -> unit
(** Install an endpoint under a specific descriptor number (kernel use: giving
    a callgate the descriptors its creator granted it).
    @raise Invalid_argument if the number is taken. *)

val count : t -> int
val fds : t -> int list
