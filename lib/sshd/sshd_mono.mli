(** Monolithic sshd: key exchange, host keys, authentication and session
    handling all in one root process.  An exploit in the protocol parser
    yields the host private keys, the shadow file, and root's filesystem. *)

val serve_connection : Sshd_env.t -> Wedge_net.Chan.ep -> unit

val ops : Sshd_env.t -> Wedge_core.Wedge.ctx -> Sshd_session.priv_ops
(** The in-process privileged operations, reused by the privilege-separated
    baseline's monitor. *)
