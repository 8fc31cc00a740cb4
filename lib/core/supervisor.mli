(** Restart policy for compartments.

    The engine contains a compartment crash (protection fault, SELinux
    denial, injected ENOMEM, channel fault, or any exception that leaves
    compartment code) by terminating only that compartment; the
    supervisor decides what happens next.

    One flat policy: {!supervise} retries each faulted attempt up to
    [max_restarts] times with exponential backoff charged to the
    simulated clock (100 ns before the first retry, doubled before each
    later one, saturating at 1 s); when the retries are exhausted the
    caller receives {!Gave_up} and degrades the one affected connection
    (HTTP 500, POP3 [-ERR], SSH disconnect) while the listener lives
    on.

    Kernel stats bumped: [supervisor.restart] and [supervisor.gave_up],
    with matching trace instants. *)

type outcome =
  | Done of { value : int; attempts : int }
      (** The compartment terminated by exiting (any code, including
          nonzero protocol failures) on attempt [attempts]. *)
  | Gave_up of { attempts : int; last_fault : string }
      (** Every attempt faulted; [last_fault] is the final reason. *)

val supervise :
  max_restarts:int ->
  ?on_restart:(unit -> unit) ->
  Engine.ctx ->
  (unit -> Engine.handle) ->
  outcome
(** [supervise ~max_restarts ctx run] runs attempts produced by [run]
    until one exits or [max_restarts] retries after the first attempt
    have faulted too: 0 fails straight to degraded, right for workers
    whose input stream the failed attempt consumed.  A contained fault
    raised by [run] itself (e.g. an injected ["pool.stamp"] fault while
    creating the compartment) counts as a faulted attempt with reason prefix ["create: "] — it
    never propagates to the caller.  [on_restart] fires once per retry,
    after the backoff charge and before the next attempt: the hook for
    per-attempt repair work such as re-arming a connection heart the
    previous attempt's cut left hung ({!Wedge_net.Guard.rearm_heart}). *)
