(** The clock side of the blocking model: a timer wheel on the
    simulated clock.

    Fibers block by parking on {!Fiber.Interest} sets, which need no
    clock.  Deadlines are timers fired at scheduler sync points (wire
    {!hook} into {!Fiber.run}'s [on_switch]); when the system stalls,
    {!idle} (wired into [on_idle]) advances the simulated clock straight
    to the earliest armed timer — the epoll_wait-with-timeout
    analogue.

    Timer order ((deadline, creation)) and every counter are
    deterministic functions of the schedule. *)

type t

val create : ?trace:Trace.t -> clock:Clock.t -> unit -> t
(** [trace] records ["reactor.timer"] instants (only when tracing is
    enabled — the disarmed path stays free). *)

val clock : t -> Clock.t

(** {2 Timers} *)

type timer_id

val at : t -> ns:int -> (unit -> unit) -> timer_id
(** Fire [f] once the simulated clock reaches absolute time [ns] (at the
    next {!hook} call at or after it).  The callback runs in
    scheduler-hook context: it must not yield or park, but may signal or
    kill interest sets, [Fiber.unpark], cancel fibers, or arm further
    timers. *)

val after : t -> ns:int -> (unit -> unit) -> timer_id
(** Relative form of {!at}. *)

val cancel_timer : t -> timer_id -> unit
(** O(1); cancelling a fired or cancelled timer is a no-op. *)

val hook : t -> unit -> unit
(** [Fiber.run ~on_switch:(Reactor.hook r)]: [hook r ()] fires every
    timer due at the current simulated time.  The sweep is gated on the
    clock having moved (or a timer having been armed) since the last
    one, so an armed-but-quiet reactor costs one comparison per
    scheduling step.  Compose manually when an oracle hook is also
    armed. *)

val idle : t -> unit -> bool
(** [Fiber.run ~on_idle:(Reactor.idle r)] — {!idle_multi} [[r]]: advance
    the clock to the earliest armed timer and fire what is due; [false]
    when no timer is armed (the scheduler then resolves a blocked
    wait). *)

val next_deadline : t -> int option
(** Earliest armed timer (absolute simulated ns on this reactor's
    clock), if any — the deadline {!idle} would sleep to. *)

val idle_multi : t list -> unit -> bool
(** Multi-shard [on_idle]: each reactor runs on its own clock, so the
    one whose earliest timer is the smallest {e relative} delay from its
    own now wakes first (ties break on list order).  Advances only that
    reactor's clock and fires only its due timers; [false] when no
    reactor has an armed timer. *)

(** {2 Observability} *)

type stats = {
  signals : int;  (** wake batches delivered *)
  wakeups : int;  (** fibers woken *)
  parks : int;  (** times a fiber parked on an interest set *)
  timer_fires : int;
  idle_advances : int;  (** clock jumps to the next timer *)
  parked : int;  (** interest registrations outstanding *)
  timers : int;  (** timers currently armed *)
}

val stats : t -> stats
(** Timer counters of this reactor, and the interest-set counters of the
    scheduler it runs under ({!Fiber.interest_stats}: the running or last
    finished {!Fiber.run}, shared by every shard of a fabric). *)

val register_metrics : ?name:string -> Metrics.t -> t -> unit
(** Counters (["reactor.signals"/"wakeups"/"parks"/"timer_fires"/
    "idle_advances"]) and gauges (["reactor.parked"/"timers"]). *)
