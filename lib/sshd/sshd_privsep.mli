(** The Provos-style privilege-separation baseline (§5.2, [13]): a
    privileged {e monitor} (the main process) and an unprivileged {e slave}
    created by {b fork} — so the slave inherits a copy of the monitor's
    entire memory — which performs all network-facing work and requests
    fixed operations from the monitor over IPC.

    This baseline reproduces both weaknesses the paper contrasts against:
    - the slave's password check asks the monitor's getpwnam, which
      returns NULL for unknown users, and on NULL refuses without the
      monitor's password round trip (portable OpenSSH 4.7 behaviour): a
      client that times its refusals learns which usernames exist;
    - the old S/Key path refuses to issue challenges for unknown users
      (the [Rembrandt 2002] leak, reachable without any exploit);
    - PAM scratch memory from a previous connection's authentication sits
      in the monitor's heap and is inherited by every forked slave
      ([Kuhn 2003]). *)

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
