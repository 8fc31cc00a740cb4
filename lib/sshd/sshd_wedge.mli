(** The Wedge-partitioned OpenSSH (Figure 6).

    Per connection, the master spawns one {e worker} sthread that runs as
    an unprivileged user with an empty filesystem root and holds only: the
    connection descriptor, read access to the public host keys and
    configuration, a read-write argument tag, and five callgates —
    {e dsa_sign} (host signature over a hash the gate computes itself),
    {e rsa_kex} (host-key decryption of the key-exchange secret), and one
    authentication gate per mechanism ({e password}, {e dsa_auth},
    {e skey}).  Since sthreads inherit no memory, nothing needs scrubbing.

    Authentication cannot be skipped: only a successful authentication
    callgate changes the worker's uid and filesystem root (the Privtrans
    idiom).  The password gate returns a dummy verdict for unknown users
    and the S/Key gate issues dummy challenges, so neither is a username
    oracle (the two lessons of §5.2). *)

val serve_connection :
  ?spawn:Wedge_core.Wedge.spawn ->
  ?guard:Wedge_net.Guard.conn ->
  ?synth:Wedge_crowbar.Synth.t ->
  Sshd_env.t ->
  Wedge_net.Chan.ep ->
  Wedge_net.Service.served
(** Serve one connection through {!Wedge_net.Service.run_worker}.
    [spawn] (default [Stamp] from the ["sshd.worker"] image) decides how
    the worker and the five callgates are spawned; [Boot] is Table 2's
    Wedge row.  A fault in the worker or in the master's setup degrades
    only this connection: a disconnect and the [sshd.degraded] counter;
    the worker is not retried (the SSH stream is consumed by a failed
    attempt).  [guard] makes it read through the deadline-aware endpoint
    and marks the session established on a successful authentication.

    A client-sized field that does not fit its slot of the 6000-byte
    argument block (a Kexinit nonce, a Kexsecret, a user name, a public
    key, a proof or an S/Key response) is refused before it is written:
    the key exchange or the authentication fails.

    [synth] threads a {!Wedge_crowbar.Synth} session through the
    connection — compartments ["sshd.worker"] (fd role ["conn"]) and the
    five callgates by name; in enforce mode the profile's entries replace
    the hand-written security contexts. *)

val service : Sshd_env.t Wedge_net.Service.t
(** The Figure 6 skeleton: name ["sshd"], worker image ["sshd.worker"]
    booted as uid 99 in an empty chroot; a rejected connection is
    disconnected silently. *)
