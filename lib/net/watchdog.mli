(** Hang detection: per-compartment heartbeat deadlines on the simulated
    clock.

    A crash is contained the instant it happens; a {e hang} (stalled
    fiber, silent peer, livelocked callgate) is invisible until a missing
    heartbeat betrays it.  Work units {!arm} a {!heart}; progress
    {!beat}s it; a heart whose last beat is older than its deadline is
    {!cut} — by the timer a {!Guard} arms at its {!next_deadline} on the
    guard's reactor, or by {!sweep}: watched endpoints are aborted
    ({!Chan.abort}) and the armed fiber cancelled
    ({!Wedge_sim.Fiber.cancel}), so the hung compartment dies as a
    contained fault its supervisor can restart.  No hung compartment
    outlives its deadline by more than one scheduling step, and a stalled
    world sleeps to the next heartbeat deadline instead of deadlocking. *)

type t
type heart

exception Hang of string
(** Raised by {!beat} on a heart that was already cut — the worker woke
    up after teardown and must die contained (registered as an engine
    fault class at link time, like [Chan.Refused]). *)

val create : ?trace:Wedge_sim.Trace.t -> deadline_ns:int -> Wedge_sim.Clock.t -> t
(** [deadline_ns] is the default heart deadline; cuts are traced as
    ["watchdog.cut"] instants.
    @raise Invalid_argument when [deadline_ns <= 0]. *)

val arm : ?name:string -> ?deadline_ns:int -> t -> heart
(** Start watching the calling fiber (the id is captured here — arm from
    inside the fiber that serves the work).  The first beat is implicit. *)

val watch : heart -> Chan.ep -> unit
(** Abort [ep] when the heart is cut. *)

val beat : heart -> unit
(** Record progress.  No-op when disarmed.
    @raise Hang when the heart was already cut. *)

val disarm : heart -> unit
(** Stop watching (normal completion).  A hung heart stays hung for
    accounting. *)

val overdue : heart -> bool

val next_deadline : heart -> int option
(** The instant the heart runs overdue (absolute simulated ns, on the
    watchdog's clock) while it is alive. *)

val hung : heart -> bool

val cut : heart -> unit
(** Force the cut now (idempotent): abort watched endpoints, cancel the
    armed fiber, count it. *)

val sweep : t -> unit
(** Cut every overdue heart. *)

val cuts : t -> int
val beats : t -> int
val armed : t -> int
(** Hearts currently alive (not hung, not disarmed). *)

val self_check : ?slack_ns:int -> t -> string option
(** Oracle invariant: [Some description] when a live heart is overdue by
    more than [slack_ns] (default 0) beyond its deadline without having
    been cut — i.e. the sweep failed to act.  Run after {!sweep} in the
    same hook. *)

val register_metrics : ?name:string -> Wedge_sim.Metrics.t -> t -> unit
(** Counters ["watchdog.cuts"]/["watchdog.beats"] and gauge
    ["watchdog.armed"]. *)
