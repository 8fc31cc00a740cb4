(** Admission control, connection deadlines, and graceful drain — the
    resource-governance front door shared by every partitioned server.

    A guard caps concurrent connections (overflow is rejected with a
    protocol-specific answer and closed), enforces header and idle
    deadlines on the simulated clock (slow-loris defense), and drains:
    stop accepting, finish in-flight connections under a deadline, then
    force-close stragglers.

    Deadline cuts use {!Chan.abort}, so the worker compartment sees EOF
    on read and a {e contained} fault on write — the listener survives.
    Everything that needs a clock runs on the guard's reactor: header,
    idle, heartbeat and drain deadlines are timer entries — so
    [Fiber.run] must be given [Reactor.hook] and [Reactor.idle] for them
    to fire.

    Two self-healing attachments (both optional):

    - a per-backend {e circuit breaker} over reported worker outcomes:
      closed → open on a consecutive-failure streak or a window failure
      rate, open sheds every admission ({!decision} [Shed]) for a cooling
      period, then half-open lets a few probes through — all succeeding
      closes it, any failing reopens it.  Below the trip point, a window
      failure rate at the brownout threshold sheds every second admission
      (partial load shedding while the backend flaps);

    - a {!Watchdog}: every admitted connection gets a heart armed in its
      serve fiber, beaten by delivered bytes and {!established}, so a
      hung worker is cut and cancelled within its heartbeat deadline. *)

type t
type conn

type breaker_state = Closed | Open | Half_open

type breaker_config

val breaker_config :
  ?consecutive:int ->
  ?rate:float ->
  ?min_samples:int ->
  ?window_ns:int ->
  ?open_ns:int ->
  ?probes:int ->
  ?brownout:float ->
  unit ->
  breaker_config
(** Trip on [consecutive] (default 3) straight failures, or a failure
    rate of [rate] (default 0.5) over at least [min_samples] (default 8)
    outcomes within [window_ns] (default 20_000) of simulated time.  Stay
    open for [open_ns] (default 10_000), then admit [probes] (default 2)
    half-open probes.  Brownout-shed every second admission while the
    window failure rate is at least [brownout] (default 0.25).
    @raise Invalid_argument on non-positive thresholds or windows. *)

type decision = Admitted of conn | Busy | Draining | Shed

type stats = {
  s_active : int;
  s_admitted : int;
  s_rejected_busy : int;
  s_rejected_draining : int;
  s_timed_out : int;  (** connections cut by a deadline or stall *)
  s_forced : int;  (** connections force-closed by {!drain} *)
  s_shed : int;  (** admissions shed by the breaker or brownout *)
  s_breaker_opened : int;  (** times the breaker tripped *)
}

val create :
  reactor:Wedge_sim.Reactor.t ->
  ?header_deadline_ns:int ->
  ?idle_deadline_ns:int ->
  ?breaker:breaker_config ->
  ?watchdog:Watchdog.t ->
  ?trace:Wedge_sim.Trace.t ->
  max_conns:int ->
  unit ->
  t
(** [reactor] carries the guard's clock and its timers; a guard with no
    deadline, breaker or watchdog arms none.  [header_deadline_ns] bounds
    the time from admission to {!established} (e.g. handshake + first
    request line); [idle_deadline_ns] bounds the gap between reads
    thereafter.  Each connection holds one fire-and-re-check timer for
    them and its [watchdog] heart's deadline (O(1) per read or beat),
    cancelled on {!release}; after a {!cut} only the heart's deadline
    remains.  The [watchdog]'s clock must be the reactor's.  [trace]
    records admission decisions
    (["guard.admit"/"guard.reject.busy"/"guard.reject.draining"]), cuts
    (["guard.cut"]), drain spans, and breaker transitions
    (["guard.breaker.open"/"half_open"/"close"/"shed"]).
    @raise Invalid_argument when [max_conns <= 0]. *)

val admit : t -> Chan.ep -> decision
(** Claim a slot.  [Busy] when at [max_conns], [Draining] once {!drain}
    started, [Shed] when the breaker is open (or half-open beyond its
    probe budget, or brownout alternation fires); all are counted and the
    caller must reject + close.  The breaker is consulted {e before}
    capacity: shedding refuses work without burning a slot. *)

val report : conn -> ok:bool -> unit
(** Feed this connection's outcome to the breaker (idempotent per
    connection; no-op without a breaker).  Servers call it where they
    decide served-vs-degraded. *)

val breaker_state : t -> breaker_state option
val breaker_reactions : t -> int list
(** Trip latencies (first failure of a streak → open), oldest first —
    the MTTR benchmark's breaker reaction rows. *)

val breaker_summary : t -> string
(** Deterministic one-liner, e.g. ["closed opened=2 shed=5"]; ["-"]
    without a breaker. *)

val release : conn -> unit
(** Give the slot back and cancel the connection's deadline timer;
    idempotent.  Always call (e.g. [Fun.protect ~finally]) or {!drain}
    will wait on a ghost. *)

val established : conn -> unit
(** The connection passed its handshake/greeting: the header deadline no
    longer applies and the idle clock restarts. *)

val rearm_heart : conn -> unit
(** Replace the connection's watchdog heart with a freshly armed one
    (watching the same endpoint).  A cut leaves the old heart hung so the
    stalled worker's late beat dies contained; a supervisor retrying the
    worker in the same serve fiber passes this as its [on_restart] hook,
    so the new attempt starts with a clean beat history instead of being
    killed for its predecessor's hang.  No-op without a watchdog. *)

val ep : conn -> Chan.ep

val overdue : conn -> bool
val cut : conn -> unit
(** Abort the connection (counted in [s_timed_out]); idempotent. *)

val endpoint : conn -> Wedge_kernel.Fd_table.endpoint
(** Deadline-aware descriptor target for the worker compartment: reads
    park for data and return EOF once the connection is cut or overdue,
    and delivered bytes restart the idle clock and beat the heart.  The
    endpoint's [ep_wait] parks {e before} the syscall trap, so an idle
    connection charges zero syscall fuel and a read that wakes to data
    never blocks inside the trap (unlike {!Chan.to_endpoint}'s, it pays
    no half round trip). *)

val accept_loop :
  t ->
  Chan.listener ->
  reject:(decision -> Chan.ep -> unit) ->
  serve:(conn -> unit) ->
  unit
(** Accept until the listener shuts down.  Admitted connections are
    served in their own fiber with the slot auto-released; rejected ones
    get [reject] (best-effort, exceptions swallowed) then close. *)

val drain : ?deadline_ns:int -> t -> Chan.listener -> unit
(** Stop accepting (shuts the listener down, resetting queued
    connections), park until in-flight connections release, and
    force-abort the remainder when the [deadline_ns] timer fires or the
    system stalls ({!Wedge_sim.Fiber.Force_drain}); a stall after the
    force forfeits the slots ({!Wedge_sim.Fiber.Forfeit_drain}).  The
    deadline timer is cancelled when the drain finishes first.
    Guaranteed to terminate. *)

val active : t -> int
(** Connections currently holding a slot — O(1), maintained at
    admit/release (never a list walk). *)

val draining : t -> bool
val stats : t -> stats

val self_check : t -> string option
(** Internal-consistency audit for the invariant oracle: [None] when the
    O(1) active counter equals the live-connection list length, no
    released connection lingers on the list, and the counter respects
    [max_conns]; otherwise [Some description] of the drift. *)

val register_metrics : ?name:string -> Wedge_sim.Metrics.t -> t -> unit
(** Expose the admission counters (["guard.admitted"],
    ["guard.rejected_busy"], ["guard.rejected_draining"],
    ["guard.timed_out"], ["guard.forced"]) and the ["guard.active"]
    gauge.  [name] (default ["guard"]) keys the source. *)
