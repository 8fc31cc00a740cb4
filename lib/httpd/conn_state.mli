(** Per-connection SSL session state laid out in tagged memory.

    This block (client/server randoms, session id, master secret, record
    cipher state) is the "session key" region of Figures 4 and 5: only the
    callgates hold permissions on its tag, the handshake sthread and client
    handler never do.  All accessors go through the caller's checked
    context, so touching this state without the grant faults. *)

val size : int
(** Bytes needed for one block. *)

val init : Wedge_core.Wedge.ctx -> int -> unit

val set_randoms : Wedge_core.Wedge.ctx -> int -> cr:bytes -> sr:bytes -> sid:string -> unit
val sid : Wedge_core.Wedge.ctx -> int -> string

val set_master : Wedge_core.Wedge.ctx -> int -> bytes -> unit
val master : Wedge_core.Wedge.ctx -> int -> bytes option

val keys : Wedge_core.Wedge.ctx -> int -> Wedge_tls.Record.keys option
val store_keys : Wedge_core.Wedge.ctx -> int -> Wedge_tls.Record.keys -> unit

val ensure_keys : Wedge_core.Wedge.ctx -> int -> Wedge_tls.Record.keys option
(** Derive server-side record keys from the stored master and randoms if
    not yet present; [None] if no master is set. *)
