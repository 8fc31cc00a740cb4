(** Cooperative fibers (effects-based) for driving client/server/attacker
    interactions over simulated channels.

    Every blocking wait parks: the simulated network ({!Wedge_net.Chan})
    parks a fiber reading an empty channel on the channel's {!Interest}
    set, and the producer's signal puts it back on the run queue.
    Compartment code itself runs to completion inside whichever fiber
    spawned it — blocking on I/O inside an sthread suspends the whole
    caller chain, which matches the paper's semantics (the parent blocks
    on [sthread_join], a callgate's caller blocks until the callgate
    terminates).

    {b Stalls are exact.}  The system is stalled when nothing is
    runnable, no parked {!wait_until} poller's condition holds, and
    {!run}'s [on_idle] cannot fire a timer.  At a stall the scheduler
    resolves one blocked wait, in {!stall} order — a bounded channel
    writer first, then a drain's force, then its forfeit — and anything
    else is told {!Deadlock}, raised inside the blocked fiber with the
    lowest id. *)

exception Deadlock of string
(** Raised inside a blocked fiber when the system stalls and no
    stall-aware wait is left to resolve; uncaught, it ends {!run}.  The
    message names the awaited condition plus every blocked fiber and
    what it is waiting for, e.g. ["channel data (blocked: fiber 0
    awaiting channel data, fiber 2 awaiting incoming connection)"]. *)

exception Cancelled of string
(** Delivered inside a fiber at its next {!yield}, stall step or park
    after {!cancel} marked it.  The engine registers this as a
    {e contained} fault class, so cancelling the
    fiber running a compartment kills only that compartment — the
    mechanism a watchdog uses to tear down a hung worker.  The mark is
    consumed on delivery: the victim's clean-up after the contained
    fault (a degraded answer, the connection's release) is not cancelled
    again. *)

(** Which runnable fiber runs next.  {!Round_robin} (the default) is the
    FIFO order every seeded replay test depends on.  The other policies
    schedule from a pool and record the pool index picked at each step
    (the {e decision trace}, {!last_decisions}); [Replay] feeds such a
    trace back, reproducing or shrinking a run exactly. *)
type policy =
  | Round_robin
  | Random of int  (** uniformly random runnable fiber, from the seed *)
  | Pct of {
      seed : int;
      change_prob : float;
          (** per-step probability that the highest-priority fiber is
              demoted below everyone else (the PCT change point) *)
    }
  | Replay of int array
      (** replay recorded pool indices; exhausted or out-of-range entries
          fall back to index 0, so truncated traces still run *)

(** What a stall-aware wait stands for, in the order a stall resolves
    them: a bounded writer whose reader is gone ({!Shed_write}), a drain
    waiting for in-flight connections ({!Force_drain}), then the same
    drain after it forced them ({!Forfeit_drain}). *)
type stall = Shed_write | Force_drain | Forfeit_drain

val run :
  ?faults:Wedge_fault.Fault_plan.t ->
  ?clock:Clock.t ->
  ?policy:policy ->
  ?on_switch:(unit -> unit) ->
  ?on_idle:(unit -> bool) ->
  (unit -> unit) ->
  unit
(** [run main] executes [main] as the first fiber and schedules every fiber
    it spawns, returning when all fibers have terminated.  When [faults] is
    given, every {!yield} rolls the plan at site ["fiber.stall"]: kind
    [Delay ns] induces a hang — the fiber burns [ns] of simulated time
    (charged to [clock] when given) across several yields before
    resuming, unless a watchdog cancels it mid-stall; any other kind
    raises {!Wedge_fault.Fault_plan.Injected} in the yielding fiber
    (crashing it mid-run unless a compartment boundary catches it).  [on_idle] runs at a stall: it should advance the
    simulated world (fire the next reactor timer) and return [true], or
    return [false] when no timer is armed — upon which a blocked wait is
    resolved (see {!stall}).  [on_switch] runs before every scheduling
    step and once at every stall — the hook reactors tick from and
    invariant oracles check kernel state at.  It must not yield or
    spawn; an exception it raises aborts the run (and propagates).
    @raise Deadlock if fibers block forever. *)

val last_decisions : unit -> int array
(** The decision trace of the most recently {e finished} run — one pool
    index per scheduling step under [Random]/[Pct]/[Replay], empty under
    [Round_robin].  Valid after both normal and exceptional termination,
    so a failing schedule can be replayed ([Replay]) and shrunk. *)

val spawn : (unit -> unit) -> unit
(** Add a new fiber.  Must be called from within {!run}. *)

val yield : unit -> unit
(** Give up the processor; the fiber resumes after other runnable fibers
    have had a turn.  No-op when called outside {!run} (so library code can
    yield unconditionally). *)

val wait_until : ?what:string -> (unit -> bool) -> unit
(** [wait_until cond] parks the calling fiber until [cond] holds — for
    conditions no interest set signals (a scenario waiting on its own
    counters).  The scheduler runs [cond] once per pass over the run
    queue and at every would-be stall, and unparks the fiber when it
    holds, so [cond] must not yield, spawn or raise.  The woken fiber
    re-checks [cond] and parks again if another fiber made it false.
    [what] names the awaited condition in deadlock messages.
    @raise Deadlock when a stall resolves this wait. *)

val park : what:string -> unit
(** Take the calling fiber off the run queue until {!unpark} — the
    primitive every wait is built on.  A pending cancellation raises
    {!Cancelled} instead of parking; one set while parked ({!cancel}
    unparks its victim) raises at resume.  A bare park has no interest
    registration, so {!audit} reports it.
    @raise Deadlock when no scheduler is running, or when a stall
    resolves this wait. *)

val unpark : int -> unit
(** Make parked fiber [id] runnable again (no-op if it is not parked).
    Safe from any fiber and from the {!run} [on_switch]/[on_idle]
    hooks. *)

val cancel : ?reason:string -> int -> unit
(** Mark fiber [id] for cancellation: its next {!yield}, stall step or
    park raises {!Cancelled} [reason] inside it.  A parked victim is
    unparked so the mark is delivered at resume.  Safe to call from the
    {!run} [on_switch] hook (scheduler context) — the watchdog's cut
    path.  No-op outside {!run}; marking an already-marked
    fiber keeps the first reason. *)

val fiber_id : unit -> int
(** The id of the running fiber (main is 0); 0 outside {!run}. *)

(** {2 Interest sets} *)

(** One readiness edge source — a channel direction, a listener's accept
    queue, a drain's connection list.  Waiters park on it and the
    producer {!signal}s it at the moment state changes; every waiter wakes
    in one batch, in fiber-id order.  Waits are {e level-triggered}: a
    woken waiter re-checks its [ready] closure and re-parks if the wake
    was spurious, so signals can be coarse and can never be lost to a
    race.  Sets need no clock and no scheduler: they can be created
    before {!run} and outlive it. *)
module Interest : sig
  type t

  val create : name:string -> t
  (** [name] appears in {!audit} messages. *)

  val wait : t -> what:string -> ready:(unit -> bool) -> unit
  (** Park the calling fiber until [ready ()] — re-checked after every
      wake.  Returns immediately on a dead set (the caller's own
      closed/EOF state carries the answer) or when [ready] already holds.
      A cancellation delivered while parked removes the registration
      before propagating — no ghost waiters.  [what] names the condition
      in deadlock messages.
      @raise Deadlock when a stall resolves this wait, or outside {!run}
      when [ready] does not hold. *)

  val wait_or_stall : t -> stall -> what:string -> ready:(unit -> bool) -> bool
  (** {!wait}, but a stall resolves it in its {!stall} class: [false]
      means the system stalled with this wait the first to resolve, and
      the caller must act (shed the write, force the drain); [true] means
      [ready] held or the set died. *)

  val signal : t -> unit
  (** Wake every waiter in one batch.  Cheap no-op with no waiters —
      producers signal unconditionally at every state change. *)

  val kill : t -> unit
  (** Mark the set dead and wake everyone; later waits return at once. *)
end

type interest_stats = {
  signals : int;  (** wake batches delivered *)
  wakeups : int;  (** fibers woken *)
  parks : int;  (** times a fiber parked on an interest set *)
  waiting : int;  (** registrations currently outstanding *)
}

val interest_stats : unit -> interest_stats
(** Counters of the running {!run}, or of the last finished one. *)

val audit : unit -> string option
(** The interest-set audit over the scheduler's registry of blocked
    fibers, for the invariant oracle: no registered, still-parked waiter
    whose readiness already holds (lost wakeup), no waiter registered on a
    dead set, no parked fiber without a registration.  A parked
    {!wait_until} poller is registered, and its condition may hold until
    the scheduler's next check.  [None] when consistent or outside
    {!run}. *)

(** Observation for tests only: nothing outside [test/] names it. *)
module For_testing : sig
  val parked_ids : unit -> int list
  (** Currently parked fiber ids, ascending. *)
end
