(** The server skeleton shared by every partitioned server.

    The paper's servers share one shape: a privileged master accepts
    every connection and runs it in default-deny compartments whose
    grants alone differ (Figure 1's POP3 server, Figure 2's Apache/OpenSSL
    split, Figures 3–5's man-in-the-middle split, Figure 6's OpenSSH, and
    the fork-per-connection OpenSSH baseline).  A server's
    compartmentalization policy — its tags, callgates and grants — stays
    in its own module, inside its [serve] function; everything that runs
    those compartments lives here once: the frozen image of the worker's
    boot, the guarded accept loop and sharded serving.

    {!run_worker} is the per-connection half of the same machinery, and
    the only way a partitioned server whose compartments are sthreads
    runs a connection: contained setup, the connection's compartments run
    one after another under the flat restart policy
    ({!Wedge_core.Supervisor.supervise}), its callgates ({!gate}) spawned
    the same way, the outcome mapped to a degraded-or-not answer, and
    everything the connection held released before it returns. *)

type 'env t = {
  name : string;
      (** The server's name, prefix of its counters and of the pool
          image's name: ["httpd"], ["pop3"], ["sshd"]. *)
  main : 'env -> Wedge_core.Wedge.ctx;  (** the master's trusted context *)
  reject : string option;
      (** Written to a connection the guard rejects before closing it;
          [None] disconnects silently. *)
  image : 'env -> Wedge_core.Pool.t;
      (** The worker image of the env's app, frozen on first use by
          {!image}: the worker identity (uid, root, SELinux context) and
          nothing else; per-connection grants ride in at stamp time. *)
  serve : 'env -> Guard.conn -> unit;
      (** Serve one admitted connection.  A degraded connection is
          answered and counted by the server itself ([<name>.degraded]). *)
}

val image : name:string -> Wedge_core.Wedge.ctx -> Wedge_core.Sc.t -> Wedge_core.Pool.t
(** [image ~name main identity] is the app's frozen image [name], frozen
    from [identity] the first time any caller asks for it, so every
    compartment and callgate of one app stamps from the same image.
    Identity only, with no heap warm-up: these workers never touch the
    private heap, and a warmed image would put all of it into every
    stamp's page table.  The freeze maps no fresh frame, but an
    injected ["pool.freeze"] fault in it reaches the caller: arm one only
    after the image exists, as the pooled storms do. *)

val serve_loop : 'env t -> 'env -> Guard.t -> Chan.listener -> unit
(** Guarded accept loop: rejected connections (over capacity or
    draining) get [reject] and close; admitted ones run [serve] in their
    own fiber.  Returns once the listener shuts down — compose with
    {!Guard.drain}. *)

val serve_sharded : 'env t -> 'env array -> Shard.front -> unit
(** Spawn one {!serve_loop} fiber per shard: shard [i] serves from
    [envs.(i)] behind the front door's shard-[i] guard and listener.
    Workers and stats stay per shard. *)

(** {1 Per-connection worker} *)

type conn
(** One connection's setup in the master, in progress. *)

val tag : conn -> name:string -> pages:int -> Wedge_mem.Tag.t
(** A fresh tag in the master, deleted when the connection ends. *)

val gate :
  conn ->
  Wedge_core.Sc.t ->
  name:string ->
  entry:(Wedge_core.Wedge.ctx -> trusted:int -> arg:int -> int) ->
  cgsc:Wedge_core.Sc.t ->
  trusted:int ->
  Wedge_core.Wedge.gate_id
(** A per-connection callgate in the master, granted to [sc] and
    retired when the connection ends.  Its invocations are spawned by the
    connection's [spawn] variant (see {!run_worker}). *)

val fd : conn -> int
(** Install the connection descriptor in the master, closed when the
    connection ends.  With a guard the worker reads through the
    deadline-aware endpoint, so a slow-loris client turns into EOF inside
    the worker instead of a fiber pinned forever. *)

type served = {
  worker_status : Wedge_kernel.Process.status;
      (** the last compartment's exit (the last attempt's), or
          [Faulted "setup: ..."] when setup itself faulted *)
  degraded : bool;
}

val run_worker :
  ?guard:Guard.conn ->
  spawn:Wedge_core.Wedge.spawn ->
  policy:Wedge_core.Supervisor.policy ->
  degrade:(unit -> unit) ->
  Wedge_core.Wedge.ctx ->
  Chan.ep ->
  (conn -> (Wedge_core.Sc.t * (Wedge_core.Wedge.ctx -> int -> int)) list) ->
  served
(** [run_worker main ep setup] runs [setup] in the master to build the
    connection's tags, descriptor and callgates, and returns its
    compartments in order, each as its grants and body.  A contained
    fault during setup (injected frame exhaustion in [tag_new], a reset
    connection) releases what was created and degrades the connection.

    The compartments then run one at a time, each only after its
    predecessor exited 0 (Figure 3's rule: the client handler starts
    only after a clean handshake); a nonzero exit ends the connection
    undegraded.  Each runs under [policy], and every retry re-arms the
    guard connection's heart, so a restarted compartment is not killed
    for its predecessor's hang.

    [spawn] decides how the compartments, their restarts and every
    callgate invocation get their address space: [Stamp image] stamps each
    compartment from [image] with its grants on top, and each gate
    invocation too; [Boot] boots both the fork-priced way; [Recycle]
    boots the compartments and backs each gate by long-lived members of
    its name, one per invocation in flight (§3.3).

    [degrade] sends the server's degraded answer when setup faulted or
    every attempt of a compartment did.  The connection's callgates,
    descriptor, channel and tags are released before returning; no fault
    reaches the caller. *)
