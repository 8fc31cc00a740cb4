(* Restart supervision for compartments (the recovery half of §4.1's
   containment story): a compartment crash is already contained by the
   engine; this module decides what happens next.

   Two layers:

   - The flat API ([supervise] and friends): retry a crashed sthread with
     exponential backoff charged to the simulated clock, give up into a
     [Gave_up] outcome the caller turns into a degraded response (HTTP
     500, POP3 -ERR, SSH disconnect).

   - The supervision tree ([node] / [child] / [run_child*]): named
     children with per-child health state and a restart-intensity budget
     on the simulated clock.  A child whose faults exceed the budget
     inside the window escalates to its node — it is quarantined (runs
     are refused outright until the quarantine expires, the caller's
     degraded path fires without burning a doomed spawn); its siblings
     are untouched.  A child that stays healthy for the node's healthy
     window gets its fault history reset, so one early crash does not
     inflate a long-lived worker's intensity forever. *)

module Clock = Wedge_sim.Clock
module Process = Wedge_kernel.Process

type policy = {
  max_restarts : int;  (* retries after the first attempt *)
  backoff_ns : int;  (* charged before retry k as backoff_ns * 2^(k-1) *)
  max_backoff_ns : int;  (* cap on any single backoff charge *)
}

let default_max_backoff_ns = 1_000_000_000

let default_policy =
  { max_restarts = 0; backoff_ns = 100; max_backoff_ns = default_max_backoff_ns }

let policy ?(max_restarts = 0) ?(backoff_ns = 100)
    ?(max_backoff_ns = default_max_backoff_ns) () =
  { max_restarts; backoff_ns; max_backoff_ns }

(* Overflow-safe exponential backoff: double attempt-1 times, saturating
   at the cap.  The former [backoff_ns * (1 lsl (attempt - 1))] went
   negative past a 62-step shift (and far earlier for large [backoff_ns]),
   which *credited* simulated time back to the clock. *)
let backoff_for p ~attempt =
  if p.backoff_ns <= 0 then 0
  else begin
    let cap = max p.max_backoff_ns 0 in
    let rec go k v =
      if k <= 0 || v >= cap then min v cap
      else go (k - 1) (if v > max_int / 2 then max_int else v * 2)
    in
    go (attempt - 1) p.backoff_ns
  end

type outcome =
  | Done of { value : int; attempts : int }
  | Gave_up of { attempts : int; last_fault : string }

(* ------------------------------------------------------------------ *)
(* Attempts                                                            *)

(* One attempt of the supervised unit, with every contained fault folded
   into [Error reason] — both a fault during creation itself (resource
   quota hit while duplicating granted descriptors, frame exhaustion
   mapping the image) and a crash inside the compartment.  Neither may
   ever propagate past the supervisor. *)
let run_attempt ctx run =
  match run () with
  | handle -> (
      match Engine.handle_status handle with
      | Process.Faulted reason -> Error reason
      | _ -> Ok (Engine.sthread_join ctx handle))
  | exception e when Engine.fault_reason e <> None ->
      Engine.stat ctx "fault.compartment";
      Error ("create: " ^ Option.get (Engine.fault_reason e))

(* The flat retry loop, parameterised over what happens before a retry:
   the tree layer threads its intensity accounting through [on_fault]
   (returning [false] to abort the retry sequence — escalation), and
   callers hook per-retry repair work — re-arming a watchdog heart left
   [`Hung] by the cut that killed the previous attempt — through
   [on_restart], which fires after the backoff charge, just before the
   new attempt spawns. *)
let supervise_gen ~policy:p ~on_fault ~on_restart ctx attempt =
  let rec go n =
    match attempt () with
    | Ok value -> Done { value; attempts = n }
    | Error reason ->
        if not (on_fault ~attempt:n reason) then
          Gave_up { attempts = n; last_fault = "escalated: " ^ reason }
        else if n <= p.max_restarts then begin
          Engine.stat ctx "supervisor.restart";
          Engine.trace_instant ctx "supervisor.restart";
          (* Exponential backoff, charged to the simulated clock: 1x, 2x,
             4x ... of [backoff_ns], saturating at [max_backoff_ns]. *)
          Engine.charge_app ctx (backoff_for p ~attempt:n);
          on_restart ();
          go (n + 1)
        end
        else begin
          Engine.stat ctx "supervisor.gave_up";
          Engine.trace_instant ctx "supervisor.gave_up";
          Gave_up { attempts = n; last_fault = reason }
        end
  in
  go 1

let supervise ?(policy = default_policy) ctx run =
  supervise_gen ~policy
    ~on_fault:(fun ~attempt:_ _ -> true)
    ~on_restart:(fun () -> ())
    ctx
    (fun () -> run_attempt ctx run)

let supervise_sthread ?policy ?instr ctx sc fn arg =
  supervise ?policy ctx (fun () -> Engine.sthread_create ?instr ctx sc fn arg)

let supervise_fork ?policy ctx fn = supervise ?policy ctx (fun () -> Engine.fork ctx fn)

(* ------------------------------------------------------------------ *)
(* Supervision tree                                                    *)

type health = Healthy | Degraded | Restarting | Quarantined

let health_to_string = function
  | Healthy -> "healthy"
  | Degraded -> "degraded"
  | Restarting -> "restarting"
  | Quarantined -> "quarantined"

type node = {
  n_name : string;
  n_intensity : int;  (* faulted attempts tolerated inside the window *)
  n_window_ns : int;
  n_healthy_after_ns : int;  (* fault history forgotten after this *)
  n_quarantine_ns : int;
  n_ctx : Engine.ctx;
  mutable n_children : child list;  (* registration order, oldest first *)
}

and child = {
  c_name : string;
  c_node : node;
  c_policy : policy;
  c_spawn : Engine.spawn;
      (* every attempt's, so under [Stamp] a restart after a quarantine
         escalation or a watchdog cut pays the flat stamp cost instead of
         a boot that scales with the image — the recovery path this
         module exists for *)
  mutable c_health : health;
  mutable c_faults : int list;  (* fault timestamps inside the window, newest first *)
  mutable c_last_fault_ns : int;
  mutable c_last_fault : string;
  mutable c_quarantined_until : int;
  mutable c_restarts : int;  (* lifetime restart count, for summaries *)
}

let node ?(intensity = 5) ?(window_ns = 10_000) ?(healthy_after_ns = 10_000)
    ?(quarantine_ns = 20_000) ~name ctx =
  if intensity < 0 then invalid_arg "Supervisor.node: intensity < 0";
  if window_ns <= 0 || healthy_after_ns <= 0 || quarantine_ns <= 0 then
    invalid_arg "Supervisor.node: windows must be positive";
  {
    n_name = name;
    n_intensity = intensity;
    n_window_ns = window_ns;
    n_healthy_after_ns = healthy_after_ns;
    n_quarantine_ns = quarantine_ns;
    n_ctx = ctx;
    n_children = [];
  }

let child ?(policy = default_policy) ?(spawn = Engine.Boot) node ~name =
  if List.exists (fun c -> c.c_name = name) node.n_children then
    invalid_arg ("Supervisor.child: duplicate child " ^ name);
  let c =
    {
      c_name = name;
      c_node = node;
      c_policy = policy;
      c_spawn = spawn;
      c_health = Healthy;
      c_faults = [];
      c_last_fault_ns = 0;
      c_last_fault = "";
      c_quarantined_until = 0;
      c_restarts = 0;
    }
  in
  node.n_children <- node.n_children @ [ c ];
  c

let child_health c = c.c_health
let children n = List.map (fun c -> (c.c_name, c.c_health)) n.n_children

(* A node is as sick as its sickest child. *)
let node_health n =
  let rank = function Healthy -> 0 | Restarting -> 1 | Degraded -> 2 | Quarantined -> 3 in
  List.fold_left
    (fun acc c -> if rank c.c_health > rank acc then c.c_health else acc)
    Healthy n.n_children

let quarantined_until c =
  match c.c_health with Quarantined -> Some c.c_quarantined_until | _ -> None

let now_of n = Clock.now (Engine.clock n.n_ctx)

(* Clock-window bookkeeping at the start of every run: lift an expired
   quarantine, and forget the fault history of a child that has stayed
   clean for the healthy window — the long-lived-worker reset. *)
let refresh c =
  let n = c.c_node in
  let now = now_of n in
  (match c.c_health with
  | Quarantined when now >= c.c_quarantined_until ->
      c.c_health <- Restarting;
      c.c_faults <- [];
      Engine.stat n.n_ctx "supervisor.quarantine.lift";
      Engine.trace_instant n.n_ctx "supervisor.quarantine.lift"
  | _ -> ());
  if c.c_faults <> [] && now - c.c_last_fault_ns >= n.n_healthy_after_ns then begin
    c.c_faults <- [];
    if c.c_health = Degraded then c.c_health <- Healthy;
    Engine.stat n.n_ctx "supervisor.healthy_reset"
  end

let quarantine c now reason =
  let n = c.c_node in
  c.c_health <- Quarantined;
  (* Quarantine throttles crash loops, and its length is priced against
     what a futile restart costs.  A [Stamp] child restarts as a
     flat-cost stamp instead of an O(pages) reboot, so the same thrash
     budget re-admits it 4x sooner — this is what makes recovery time
     independent of image size, not just the spawn itself. *)
  let span =
    match c.c_spawn with
    | Engine.Stamp _ -> max 1 (n.n_quarantine_ns / 4)
    | Engine.Boot | Engine.Recycle -> n.n_quarantine_ns
  in
  c.c_quarantined_until <- now + span;
  c.c_last_fault <- reason;
  Engine.stat n.n_ctx "supervisor.escalated";
  Engine.trace_instant n.n_ctx "supervisor.escalated"

(* Record one faulted attempt against the child's intensity window.
   Returns [false] — stop retrying — when the budget is exceeded. *)
let note_fault c reason =
  let n = c.c_node in
  let now = now_of n in
  c.c_faults <- now :: List.filter (fun t -> now - t <= n.n_window_ns) c.c_faults;
  c.c_last_fault_ns <- now;
  c.c_last_fault <- reason;
  if List.length c.c_faults > n.n_intensity then begin
    quarantine c now reason;
    false
  end
  else true

let run_child_gen ?(on_restart = fun () -> ()) c attempt =
  let n = c.c_node in
  refresh c;
  match c.c_health with
  | Quarantined ->
      (* Refused outright: the caller degrades this request immediately
         instead of burning a doomed compartment spawn. *)
      Engine.stat n.n_ctx "supervisor.quarantine.refused";
      Gave_up { attempts = 0; last_fault = "quarantined: " ^ c.c_last_fault }
  | _ ->
      let on_fault ~attempt reason =
        let retry = note_fault c reason in
        (* Only an attempt the policy will actually retry counts as a
           restart; the final fault before a give-up does not. *)
        if retry && attempt <= c.c_policy.max_restarts then begin
          c.c_health <- Restarting;
          c.c_restarts <- c.c_restarts + 1
        end;
        retry
      in
      let outcome = supervise_gen ~policy:c.c_policy ~on_fault ~on_restart n.n_ctx attempt in
      (match outcome with
      | Done _ -> c.c_health <- (if c.c_faults = [] then Healthy else Degraded)
      | Gave_up _ -> if c.c_health <> Quarantined then c.c_health <- Degraded);
      outcome

let run_child ?on_restart c run =
  run_child_gen ?on_restart c (fun () -> run_attempt c.c_node.n_ctx run)

let run_child_sthread ?on_restart ?instr c sc fn arg =
  run_child ?on_restart c (fun () ->
      Engine.sthread_create ?instr ~spawn:c.c_spawn c.c_node.n_ctx sc fn arg)

let run_child_fork ?on_restart c fn =
  run_child ?on_restart c (fun () -> Engine.fork c.c_node.n_ctx fn)

(* Supervise a plain function in the caller's process — the shape of an
   accept loop, which is not a compartment but must survive contained
   faults leaking out of the serve path all the same. *)
let run_child_fn ?on_restart c fn =
  run_child_gen ?on_restart c (fun () ->
      match fn () with
      | v -> Ok v
      | exception e when Engine.fault_reason e <> None ->
          Error (Option.get (Engine.fault_reason e)))

let tree_to_string n =
  Printf.sprintf "%s[%s]: %s" n.n_name
    (health_to_string (node_health n))
    (String.concat ", "
       (List.map
          (fun c ->
            Printf.sprintf "%s=%s/%d" c.c_name (health_to_string c.c_health) c.c_restarts)
          n.n_children))
