(** Admission control, connection deadlines, hang detection and graceful
    drain — the resource-governance front door shared by every
    partitioned server.

    A guard admits on drain and capacity alone: it turns a connection
    away once {!drain} has started or while [max_conns] are in flight
    (the client gets a protocol-specific answer, then a close).  It
    enforces a header deadline on the simulated clock (slow-loris
    defense), cuts a connection whose heart stops beating, and drains:
    stop accepting, finish in-flight connections under a deadline, then
    force-close stragglers.

    Deadline cuts use {!Chan.abort}, so the worker compartment sees EOF
    on read and a {e contained} fault on write — the listener survives.
    Everything that needs a clock runs on the guard's reactor: header,
    heart and drain deadlines are timer entries — so [Fiber.run] must be
    given [Reactor.hook] and [Reactor.idle] for them to fire.

    Hang detection is optional: with a hang deadline, each connection's
    heart, armed in its serve fiber and beaten by delivered bytes and
    {!established}, is cut when it misses the deadline — channel aborted,
    serve fiber cancelled — so a hung worker dies as a contained fault
    and its connection degrades. *)

type t
type conn

type decision = Admitted of conn | Busy | Draining

type stats = {
  s_active : int;
  s_admitted : int;
  s_rejected_busy : int;
  s_rejected_draining : int;
  s_timed_out : int;  (** connections cut by a deadline or stall *)
  s_forced : int;  (** connections force-closed by {!drain} *)
  s_shed : int;
      (** always 0: nothing is shed beyond [Busy] and [Draining]; kept for
          readers that add it to the rejections *)
  s_hang_cuts : int;  (** hearts cut by the hang deadline *)
  s_beats : int;  (** beats on alive hearts *)
}

exception Hang of string
(** Raised by a beat on a heart that was already cut — the worker woke up
    after teardown and must die contained (registered as an engine fault
    class at link time, like [Chan.Refused]). *)

val create :
  reactor:Wedge_sim.Reactor.t ->
  ?header_deadline_ns:int ->
  ?hang_deadline_ns:int ->
  ?trace:Wedge_sim.Trace.t ->
  max_conns:int ->
  unit ->
  t
(** [reactor] carries the guard's clock and its timers; a guard with no
    deadline arms none.  [header_deadline_ns] bounds the time from
    admission to {!established} (e.g. handshake + first request line);
    [hang_deadline_ns] bounds the gap between beats of an armed heart.
    Each connection holds one fire-and-re-check timer for both (O(1) per
    read or beat), cancelled when the connection ends; after a {!cut}
    only the heart's deadline remains.  [trace] records admission decisions
    (["guard.admit"/"guard.reject.busy"/"guard.reject.draining"]), cuts
    (["guard.cut"], and ["watchdog.cut"] for a heart) and drain spans.
    @raise Invalid_argument when [max_conns <= 0] or
    [hang_deadline_ns <= 0]. *)

val established : conn -> unit
(** The connection passed its handshake/greeting: the header deadline no
    longer applies, and the heart beats.
    @raise Hang when the heart was already cut. *)

val ep : conn -> Chan.ep

val endpoint : conn -> Wedge_kernel.Fd_table.endpoint
(** Deadline-aware descriptor target for the worker compartment: reads
    park for data and return EOF once the connection is cut or overdue,
    and delivered bytes beat the heart.  The endpoint's [ep_wait] parks
    {e before} the syscall trap, so an idle connection makes no kernel
    entry and a read that wakes to data never blocks inside the
    trap (unlike {!Chan.to_endpoint}'s, it pays no half round trip). *)

val accept_loop :
  t ->
  Chan.listener ->
  reject:(decision -> Chan.ep -> unit) ->
  serve:(conn -> unit) ->
  unit
(** Accept until the listener shuts down.  Admitted connections are
    served in their own fiber with the slot auto-released; rejected ones
    get [reject] (best-effort, exceptions swallowed) then close. *)

val drain : t -> Chan.listener -> unit
(** Stop accepting (shuts the listener down, resetting queued
    connections), park until in-flight connections release, and
    force-abort the remainder when the system stalls
    ({!Wedge_sim.Fiber.Force_drain}); a stall after the force forfeits
    the slots ({!Wedge_sim.Fiber.Forfeit_drain}).  Guaranteed to
    terminate. *)

val active : t -> int
(** Connections currently holding a slot — O(1), maintained at
    admit/release (never a list walk). *)

val stats : t -> stats

val self_check : t -> string option
(** Internal-consistency audit for the invariant oracle: [None] when the
    O(1) active counter equals the live-connection list length, no
    released connection lingers on the list, and the counter respects
    [max_conns]; otherwise [Some description] of the drift. *)

val heart_check : ?slack_ns:int -> t -> string option
(** Oracle invariant: [Some description] when a live connection's alive
    heart is overdue by more than [slack_ns] (default 0) beyond the hang
    deadline without having been cut — i.e. its timer failed to act. *)

val register_metrics : Wedge_sim.Metrics.t -> t -> unit
(** Expose the admission counters (["guard.admitted"],
    ["guard.rejected_busy"], ["guard.rejected_draining"],
    ["guard.timed_out"], ["guard.forced"]) and the ["guard.active"]
    gauge, keyed ["guard"]. *)
