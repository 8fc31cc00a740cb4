(** Security contexts ([sc_t], §3.1, Table 1).

    An sc describes everything an sthread may touch: memory tags with their
    permissions, file descriptors with theirs, invocable callgates, and the
    UNIX uid / filesystem root / SELinux SID it runs under.  A fresh sc
    grants nothing — compartments are default-deny; every privilege is an
    explicit [*_add] call. *)

type mem_grant = {
  tag : Wedge_mem.Tag.t;
  grant : Wedge_kernel.Prot.grant;
}

type fd_grant = {
  fd : int;
  perm : Wedge_kernel.Fd_table.perm;
}

type t = {
  mutable mems : mem_grant list;
  mutable fds : fd_grant list;
  mutable gates : int list;  (** callgate capability ids, minted by
                                 [Engine.sc_cgate_add] *)
  mutable uid : int option;   (** [None] inherits the parent's *)
  mutable root : string option;
  mutable sid : string option;
}

val create : unit -> t
(** The empty (deny-everything) security context. *)

val mem_add : t -> Wedge_mem.Tag.t -> Wedge_kernel.Prot.grant -> unit
(** [sc_mem_add] of Table 1. *)

val fd_add : t -> int -> Wedge_kernel.Fd_table.perm -> unit
(** [sc_fd_add] of Table 1. *)

val sel_context : t -> string -> unit
(** [sc_sel_context] of Table 1. *)

val set_uid : t -> int -> unit
val set_root : t -> string -> unit

val gate_grant : t -> int -> unit
(** Grant an existing capability (normally done by
    [Engine.sc_cgate_add]; exposed for passing a held capability on to a
    child). *)

val mem_grant_of : t -> int -> Wedge_kernel.Prot.grant option
(** The grant this sc holds for a tag id, if any. *)
