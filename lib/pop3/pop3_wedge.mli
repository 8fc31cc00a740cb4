(** The Wedge-partitioned POP3 server — Figure 1 of the paper, executable.

    Per connection:
    - a {e client handler} sthread parses commands.  It runs as uid 99 with
      an empty chroot, holds read-write on the argument tag, read-only on
      the mail buffer tag, the connection descriptor, and two callgates —
      nothing else;
    - a {e login} callgate (runs as root) verifies credentials against
      /etc/pop3.passwd and writes the authenticated uid into the uid tag,
      which the handler cannot even read;
    - a {e mailbox} callgate reads the uid tag and serves only that user's
      mail into the mail buffer.

    Authentication cannot be bypassed: the mailbox callgate refuses until
    the login callgate has written the uid, and only the login callgate
    holds write permission on that tag.

    Every one of these compartments — the handler and each callgate
    invocation — is stamped fresh from the app's frozen ["pop3.worker"]
    image for one flat charge, instead of mapping the pristine snapshot
    page by page. *)

val serve_connection :
  ?spawn:Wedge_core.Wedge.spawn ->
  ?guard:Wedge_net.Guard.conn ->
  ?synth:Wedge_crowbar.Synth.t ->
  Wedge_core.Wedge.ctx ->
  Wedge_net.Chan.ep ->
  unit
(** Serve one connection from the master context ([main]); blocks until the
    session ends.

    [spawn] (default [Stamp] from the ["pop3.worker"] image) decides how
    the handler and both callgates are spawned; [Boot]
    boots them fork-priced.

    Fault containment ({!Wedge_net.Service.run_worker}): a crash anywhere
    in this connection degrades only this connection (best-effort [-ERR]
    farewell, [pop3.degraded] counter) and never reaches the caller.
    A crashed handler is not retried: a fresh one would greet a client
    that is waiting for the reply to a command, and put the session out
    of step.

    A mailbox reply that does not fit the 16 KiB mail buffer (a STAT,
    LIST or RETR result) is refused by the mailbox callgate with its own
    result, and the handler answers [-ERR reply too large].

    Resource governance: [guard] makes the handler read through the
    deadline-aware endpoint and marks the session established on a
    successful login.

    Profile synthesis: [synth] threads a {!Wedge_crowbar.Synth} session
    through the connection — compartments ["pop3.worker"] (fd role
    ["conn"]), ["pop3.login"] and ["pop3.mailbox"]; in enforce mode the
    profile's entries replace the hand-written security contexts. *)

val service : Wedge_core.Wedge.ctx Wedge_net.Service.t
(** The POP3 skeleton over the master context: name ["pop3"],
    {!serve_connection} with its defaults per admitted
    connection, worker image ["pop3.worker"] booted as uid 99 in an
    empty chroot, ["-ERR busy, try again later"] for rejected
    connections. *)

val serve_sharded : Wedge_core.Wedge.ctx array -> Wedge_net.Shard.front -> unit
(** [Wedge_net.Service.serve_sharded service]. *)
