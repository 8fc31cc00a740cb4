(** Restart policy for compartments.

    The engine contains a compartment crash (protection fault, SELinux
    denial, injected ENOMEM, channel fault, or any exception that leaves
    compartment code) by terminating only that compartment; the
    supervisor decides what happens next.

    One flat policy: {!supervise} retries each faulted attempt up to
    [max_restarts] times with exponential backoff charged to the
    simulated clock; when the policy is exhausted the caller receives
    {!Gave_up} and degrades the one affected connection (HTTP 500, POP3
    [-ERR], SSH disconnect) while the listener lives on.

    Kernel stats bumped: [supervisor.restart] and [supervisor.gave_up],
    with matching trace instants. *)

type policy = {
  max_restarts : int;  (** retries after the first attempt *)
  backoff_ns : int;  (** retry [k] charges [backoff_ns * 2^(k-1)] ns *)
  max_backoff_ns : int;  (** saturation cap on any single backoff charge *)
}

val default_policy : policy
(** No restarts: fail straight to degraded (right for workers whose input
    stream is consumed by the failed attempt). *)

val policy :
  ?max_restarts:int -> ?backoff_ns:int -> ?max_backoff_ns:int -> unit -> policy
(** [max_backoff_ns] defaults to 1s of simulated time. *)

val backoff_for : policy -> attempt:int -> int
(** The backoff charged after faulted attempt [attempt]: [backoff_ns]
    doubled [attempt - 1] times, saturating (overflow-safely) at
    [max_backoff_ns]. *)

type outcome =
  | Done of { value : int; attempts : int }
      (** The compartment terminated by exiting (any code, including
          nonzero protocol failures) on attempt [attempts]. *)
  | Gave_up of { attempts : int; last_fault : string }
      (** Every attempt faulted; [last_fault] is the final reason. *)

val supervise :
  ?policy:policy ->
  ?on_restart:(unit -> unit) ->
  Engine.ctx ->
  (unit -> Engine.handle) ->
  outcome
(** [supervise ctx run] runs attempts produced by [run] until one exits or
    the policy gives up.  A contained fault raised by [run] itself (e.g.
    a resource quota hit while creating the compartment) counts as a
    faulted attempt with reason prefix ["create: "] — it never propagates
    to the caller.  [on_restart] fires once per retry, after the backoff
    charge and before the next attempt: the hook for per-attempt repair
    work such as re-arming a connection heart the previous attempt's cut
    left hung ({!Wedge_net.Guard.rearm_heart}). *)
