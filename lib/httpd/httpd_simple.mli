(** The Figure 2 partitioning: protect the private key and session-key
    generation.

    One worker sthread per connection encapsulates all untrusted code and
    terminates after a single request.  The RSA private key lives in tagged
    memory reachable only by the {e setup_session_key} callgate, which also
    generates the server's random contribution itself — an exploited worker
    can neither read the key nor usefully influence session-key generation.

    The worker {e does} receive the established session key (master secret
    and record keys), which is exactly the residual weakness the
    man-in-the-middle partitioning ({!Httpd_mitm}) removes.

    By default the worker and every callgate invocation are stamped
    fresh from the app's frozen ["httpd.worker"] image for one flat
    charge, so neither pays a page-table copy of the large Apache image. *)

val serve_connection :
  ?spawn:Wedge_core.Wedge.spawn ->
  ?guard:Wedge_net.Guard.conn ->
  ?max_request_bytes:int ->
  ?worker_limits:Wedge_kernel.Rlimit.t ->
  ?synth:Wedge_crowbar.Synth.t ->
  Httpd_env.t ->
  Wedge_net.Chan.ep ->
  Wedge_net.Service.served
(** Serve one connection.  [spawn] (default [Stamp] from the worker
    image) decides how the worker and the callgate are spawned
    ({!Wedge_net.Service.run_worker}): [Boot] boots both fork-priced,
    [Recycle] backs the callgate with a long-lived sthread (§3.3).

    Fault containment ({!Wedge_net.Service.run_worker}): a crash anywhere
    in this connection — injected or real, in the worker sthread or in the
    monitor's own per-connection setup — degrades only this connection
    (plaintext 500, counters [httpd.degraded] / [supervisor.*] bumped) and
    never propagates to the caller, so an accept loop above survives any
    connection's death.  A faulted worker is not retried (the TLS stream
    is consumed by the failed attempt).

    Resource governance: [guard] makes the worker read through the
    deadline-aware endpoint (slow-loris becomes EOF) and marks the
    connection established after the handshake; [max_request_bytes]
    answers oversized decrypted requests with a sealed 413;
    [worker_limits] arms per-sthread resource quotas (frames / fds /
    syscall fuel) on the worker compartment.

    Profile synthesis: [synth] threads a {!Wedge_crowbar.Synth} session
    through the connection — recording the worker (["httpd.worker"], fd
    role ["conn"]) and the callgate (["setup_session_key"]), or
    complaining/enforcing an installed profile; in enforce mode the
    profile's entries replace the hand-written security contexts. *)

val service : Httpd_env.t Wedge_net.Service.t
(** The httpd skeleton: name ["httpd"], worker image ["httpd.worker"]
    booted as uid 33 inside the
    docroot chroot (with the env's worker SELinux context when set),
    plaintext 503 for rejected connections, {!serve_connection} with a
    4096-byte [max_request_bytes] per admitted one. *)

val serve_sharded : ?max_request_bytes:int -> Httpd_env.t array -> Wedge_net.Shard.front -> unit
(** [Wedge_net.Service.serve_sharded service], its request-size cap
    replaced by [max_request_bytes] when given. *)
