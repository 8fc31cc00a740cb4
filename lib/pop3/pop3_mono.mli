(** The monolithic POP3 server: one root-privileged process handles
    parsing, authentication and mail retrieval.  An exploit in the parser
    therefore owns the password database and every user's mail — the
    baseline §2 argues against. *)

val serve_connection : Wedge_core.Wedge.ctx -> Wedge_net.Chan.ep -> unit
(** Handle one client connection in the given (privileged) context. *)
