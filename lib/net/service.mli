(** The server skeleton shared by every partitioned server.

    The paper's servers share one shape: a privileged master accepts
    every connection and runs it in default-deny compartments whose
    grants alone differ (Figure 1's POP3 server, Figure 2's Apache/OpenSSL
    split, OpenSSH).  A server's compartmentalization policy — its tags,
    callgates and grants — stays in its own module, inside its [serve]
    function; everything that runs those compartments lives here once:
    the snapshot pool of the worker's boot, the declared supervision
    tree, the guarded accept loop and sharded serving.

    {!run_worker} is the per-connection half of the same machinery for
    servers whose worker is an sthread: contained setup, the worker run
    under a tree child or the flat restart layer, and the outcome mapped
    to a degraded-or-not answer. *)

type 'env t = {
  name : string;
      (** Supervision node name, and prefix of the pool image's name:
          ["httpd"], ["pop3"], ["sshd"]. *)
  main : 'env -> Wedge_core.Wedge.ctx;  (** the master's trusted context *)
  reject : string option;
      (** Written to a connection the guard rejects before closing it;
          [None] disconnects silently. *)
  identity : 'env -> Wedge_core.Sc.t;
      (** The worker identity frozen into the pool image (uid, root,
          SELinux context); per-connection grants ride in at stamp
          time. *)
  worker : string;  (** the worker child's name, e.g. ["worker"] *)
  worker_policy : Wedge_core.Supervisor.policy option;
      (** The worker child's restart policy ([None]: the child default). *)
  serve : Wedge_core.Supervisor.child option -> 'env -> Guard.conn -> bool;
      (** Serve one admitted connection, its worker under the given tree
          child when supervised; [true] when served, [false] when
          degraded. *)
}

type tree =
  Wedge_core.Supervisor.node * Wedge_core.Supervisor.child * Wedge_core.Supervisor.child
(** [(node, listener, worker)]. *)

val pool : 'env t -> 'env -> Wedge_core.Pool.t
(** Freeze the worker's boot once: [identity], heap warmed so the
    demand-mapped pages join the image.  The image is named
    [name ^ "." ^ worker]. *)

val tree : ?pool:Wedge_core.Pool.t -> 'env t -> 'env -> tree
(** The declared topology: node [name] with children ["listener"]
    (registered first, so a [Rest_for_one] escalation of the listener
    restarts the workers, never the reverse; two accept-loop retries) and
    [worker] (policy [worker_policy]).  With [pool] every worker attempt,
    first run and restarts alike, is stamped from the frozen image at a
    flat cost instead of a fork-priced boot. *)

val serve_loop : ?supervision:tree -> 'env t -> 'env -> Guard.t -> Chan.listener -> unit
(** Guarded accept loop: rejected connections (over capacity, draining or
    breaker-shed) get [reject] and close; admitted ones run [serve] in
    their own fiber, the outcome reported to the guard's breaker.  With
    [supervision] workers run under its worker child and the accept loop
    under ["listener"], so a contained fault leaking out of the serve path
    restarts the loop instead of killing the server.  Returns once the
    listener shuts down — compose with {!Guard.drain}. *)

val serve_sharded : 'env t -> 'env array -> Shard.front -> unit
(** Spawn one {!serve_loop} fiber per shard: shard [i] serves from
    [envs.(i)] behind the front door's shard-[i] guard and listener.
    Workers, supervision and stats stay per shard. *)

(** {1 Per-connection worker} *)

type conn
(** One connection's setup in the master, in progress. *)

val tag : conn -> name:string -> pages:int -> Wedge_mem.Tag.t
(** A fresh tag in the master, deleted when the connection ends. *)

val fd : conn -> int
(** Install the connection descriptor in the master, closed when the
    connection ends.  With a guard the worker reads through the
    deadline-aware endpoint, so a slow-loris client turns into EOF inside
    the worker instead of a fiber pinned forever. *)

type served = {
  worker_status : Wedge_kernel.Process.status;
      (** the last attempt's exit, or [Faulted "setup: ..."] when setup
          itself faulted *)
  degraded : bool;
}

val run_worker :
  ?supervised:Wedge_core.Supervisor.child ->
  ?guard:Guard.conn ->
  policy:Wedge_core.Supervisor.policy ->
  degrade:(unit -> unit) ->
  Wedge_core.Wedge.ctx ->
  Chan.ep ->
  (conn -> Wedge_core.Sc.t * (Wedge_core.Wedge.ctx -> int -> int)) ->
  served
(** [run_worker main ep setup] runs [setup] in the master to build the
    connection's compartments and returns the worker's grants and body.
    A contained fault during setup (injected frame exhaustion in
    [tag_new], a reset connection) releases what was created and
    degrades the connection.  The worker then runs under [supervised]
    (its policy and intensity budget) or else the flat [policy]; each
    retry re-arms the guard's watchdog heart, so a restarted worker is
    not killed for its predecessor's hang.  [degrade] sends the server's
    degraded answer when setup faulted or every attempt did.  The
    connection's descriptor, channel and tags are released before
    returning; no fault reaches the caller. *)
