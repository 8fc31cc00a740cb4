(** Restart policies and supervision trees for compartments.

    The engine contains a compartment crash (protection fault, SELinux
    denial, injected ENOMEM or channel fault) by terminating only that
    compartment; a supervisor decides what happens next.

    The {e flat} layer ({!supervise} and friends) retries each faulted
    attempt up to [max_restarts] times with exponential backoff charged to
    the simulated clock; when the policy is exhausted the caller receives
    {!Gave_up} and degrades the one affected connection (HTTP 500, POP3
    [-ERR], SSH disconnect) while the listener lives on.

    The {e tree} layer ({!node} / {!child} / {!run_child_sthread}) adds named
    children with per-child {!health} state and a restart-intensity budget
    (at most [intensity] faulted attempts per [window_ns] of simulated
    time).  Exceeding the budget escalates to the node: the child is
    {!Quarantined} — further runs are refused outright for
    [quarantine_ns], so the caller degrades immediately instead of burning
    a doomed spawn — and its siblings are left alone.  A child that stays
    clean for [healthy_after_ns] has its fault history forgotten, so an
    early crash cannot inflate a long-lived worker's intensity forever.

    Kernel stats bumped: [supervisor.restart], [supervisor.gave_up],
    [supervisor.escalated], [supervisor.quarantine.refused],
    [supervisor.quarantine.lift], [supervisor.healthy_reset] — with
    matching trace instants for the state transitions. *)

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
      (** Every attempt faulted; [last_fault] is the final reason —
          prefixed ["escalated: "] when the intensity budget cut the
          retries short, ["quarantined: "] when the run was refused
          without an attempt ([attempts = 0]). *)

val supervise :
  ?policy:policy -> Engine.ctx -> (unit -> Engine.handle) -> outcome
(** [supervise ctx run] runs attempts produced by [run] until one exits or
    the policy gives up.  A contained fault raised by [run] itself (e.g.
    a resource quota hit while creating the compartment) counts as a
    faulted attempt with reason prefix ["create: "] — it never propagates
    to the caller. *)

val supervise_sthread :
  ?policy:policy ->
  ?instr:Wedge_sim.Instr.t ->
  Engine.ctx ->
  Sc.t ->
  (Engine.ctx -> int -> int) ->
  int ->
  outcome
(** {!supervise} over {!Engine.sthread_create}: each attempt is a fresh
    default-deny sthread with grants [sc]. *)

val supervise_fork :
  ?policy:policy -> Engine.ctx -> (Engine.ctx -> int) -> outcome
(** {!supervise} over {!Engine.fork} (the privsep baseline's slave). *)

(** {2 Supervision trees} *)

type health = Healthy | Degraded | Restarting | Quarantined
(** [Healthy]: no faults in the window.  [Degraded]: gave up (or still
    carrying window faults) but runnable.  [Restarting]: mid-retry, or
    just out of quarantine.  [Quarantined]: intensity budget exceeded;
    runs are refused until the quarantine expires. *)

type node
type child

val node :
  ?intensity:int ->
  ?window_ns:int ->
  ?healthy_after_ns:int ->
  ?quarantine_ns:int ->
  name:string ->
  Engine.ctx ->
  node
(** A supervision node.  Defaults: [intensity] 5 faulted attempts per
    [window_ns] 10_000 ns, history reset after
    [healthy_after_ns] 10_000 ns clean, [quarantine_ns] 20_000 ns.
    @raise Invalid_argument on a negative intensity or non-positive
    window. *)

val child : ?policy:policy -> ?spawn:Engine.spawn -> node -> name:string -> child
(** Register a named child.  [policy] governs each run's retries.
    [spawn] (default [Boot]) is how every {!run_child_sthread} attempt
    gets its address space: under [Stamp image] the first run and every
    restart alike — after a quarantine escalation or a watchdog cut — is
    stamped from the frozen image at a flat cost independent of image
    size.

    Quarantine throttles crash loops, and its length is priced against
    what a futile restart costs: a [Stamp] child serves a quarter of the
    node's [quarantine_ns], because re-admitting it wastes a flat stamp
    rather than an O(pages) reboot.  Restart-intensity budgets thereby
    stop depending on image size.
    @raise Invalid_argument on a duplicate name within the node. *)

(** {2 Running a child}

    Each runner below is {!supervise} under the child's policy, plus tree
    accounting: every faulted attempt lands in the intensity window;
    exceeding the budget escalates (see module doc) and returns [Gave_up]
    with reason ["escalated: ..."].  While quarantined, a runner returns
    [Gave_up { attempts = 0; last_fault = "quarantined: ..." }] without
    running anything.  [on_restart] fires once per retry, after the
    backoff charge and before the next attempt — the hook for per-attempt
    repair work such as re-arming a watchdog heart the previous attempt's
    cut left hung ({!Wedge_net.Guard.rearm_heart}). *)

val run_child_sthread :
  ?on_restart:(unit -> unit) ->
  ?instr:Wedge_sim.Instr.t ->
  child ->
  Sc.t ->
  (Engine.ctx -> int -> int) ->
  int ->
  outcome
(** A runner over {!Engine.sthread_create} with grants [sc] and the
    child's [spawn]. *)

val run_child_fork : ?on_restart:(unit -> unit) -> child -> (Engine.ctx -> int) -> outcome
(** A runner over {!Engine.fork} (the privsep baseline's slave): the
    fork inherits the whole address space, whatever the child's
    [spawn]. *)

val run_child_fn : ?on_restart:(unit -> unit) -> child -> (unit -> int) -> outcome
(** A runner over a plain function in the caller's process — the
    shape of an accept loop: not a compartment, but restartable under the
    same budget when a contained fault leaks out of the serve path. *)

val child_health : child -> health

val quarantined_until : child -> int option
(** Simulated-clock instant the quarantine lifts, while quarantined. *)

val children : node -> (string * health) list
(** Child names and health, in registration order. *)

val tree_to_string : node -> string
(** Deterministic one-line rendering, e.g.
    ["httpd[degraded]: listener=healthy/0, worker=degraded/3"]. *)
