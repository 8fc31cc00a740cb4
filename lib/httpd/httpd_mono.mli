(** The monolithic (vanilla) Apache/OpenSSL stand-in: the whole SSL
    handshake, the private key, the session keys and the request handling
    live in one privileged process — and a pool of reused workers means no
    per-request process creation (fast, zero isolation).  An exploit in the
    request parser yields the private key, every session key, and the whole
    filesystem. *)

val serve_connection :
  ?exploit:(Wedge_core.Wedge.ctx -> unit) -> Httpd_env.t -> Wedge_net.Chan.ep -> unit
(** Serve one SSL connection (one request) in the main privileged
    context. *)
