(** The Provos-style privilege-separation baseline (§5.2, [13]): a
    privileged {e monitor} (the main process) and an unprivileged {e slave}
    created by {b fork} — so the slave inherits a copy of the monitor's
    entire memory — which performs all network-facing work and requests
    fixed operations from the monitor over IPC.

    This baseline reproduces both weaknesses the paper contrasts against:
    - the monitor's getpwnam operation returns NULL for unknown users, so
      an exploited slave can probe for valid usernames at will
      (portable OpenSSH 4.7 behaviour);
    - the old S/Key path refuses to issue challenges for unknown users
      (the [Rembrandt 2002] leak, reachable without any exploit);
    - PAM scratch memory from a previous connection's authentication sits
      in the monitor's heap and is inherited by every forked slave
      ([Kuhn 2003]). *)

(** The monitor's IPC surface — what an exploited slave may invoke. *)
type monitor = {
  m_getpw : string -> string option;  (** shadow line or None: a username oracle *)
  m_authpass : user:string -> password:string -> bool;
  m_sign : client_nonce:bytes -> server_nonce:bytes -> string;
  m_decrypt : bytes -> bytes option;
  m_skey_challenge : user:string -> (int * string) option;  (** None leaks nonexistence *)
  m_skey_verify : user:string -> response:string -> bool;
  m_setuid : slave_pid:int -> uid:int -> unit;
}

val monitor : Sshd_env.t -> monitor
(** The monitor's IPC surface over [env]'s privileged main process, as
    every connection's slave gets it: each call runs in the monitor and
    charges the IPC round trip.  A payload taken over in a slave
    ({!Wedge_core.Wedge.takeover}) calls the monitor through this. *)

val serve_connection :
  ?guard:Wedge_net.Guard.conn ->
  Sshd_env.t ->
  Wedge_net.Chan.ep ->
  unit
(** Fork a slave for one connection.

    Fault containment: a slave crash (injected or real) never kills the
    monitor — the slave is not retried (the encrypted stream died with
    it), the client is disconnected and [sshd.degraded] is counted.

    Resource governance: [guard] makes the slave read through the
    deadline-aware endpoint and marks the session established on
    authentication success (any method — all go through the monitor's
    setuid). *)

val service : Sshd_env.t Wedge_net.Service.t
(** The privsep skeleton: name ["sshd"], pool image ["sshd.slave"]
    keeping the monitor's identity (the slave itself always forks),
    silent disconnect for rejected connections — MaxStartups
    semantics. *)
