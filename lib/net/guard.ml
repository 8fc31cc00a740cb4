(* Admission control and connection deadlines shared by every server.

   A guard sits between a listener and the per-connection compartments:
   it caps concurrent connections (overflow gets a protocol-specific
   rejection and an immediate close), enforces header/idle deadlines on
   the simulated clock so a slow-loris client is cut instead of pinning a
   worker forever, and offers [drain] — stop accepting, let in-flight
   connections finish under a deadline, then force-close stragglers.

   Cutting always goes through [Chan.abort]: the worker compartment sees
   EOF on read and a contained [Fault_plan.Injected] on write, both of
   which the engine maps to a compartment fault.  Never [Chan.close],
   whose [Invalid_argument] on a subsequent worker write would escape
   containment and kill the listener.

   Everything that needs a clock runs on the reactor: header, idle and
   heartbeat deadlines share one timer per connection, and the drain
   deadline is a timer too.  Nothing here polls. *)

module Fiber = Wedge_sim.Fiber
module Interest = Wedge_sim.Fiber.Interest
module Clock = Wedge_sim.Clock
module Trace = Wedge_sim.Trace
module Metrics = Wedge_sim.Metrics
module Reactor = Wedge_sim.Reactor

(* ------------------------------------------------------------------ *)
(* Circuit breaker                                                     *)

(* Per-backend breaker over worker outcomes ([report]).  Closed → Open on
   either [bc_consecutive] straight failures or a failure rate of at
   least [bc_rate] over [bc_min_samples]+ outcomes inside [bc_window_ns];
   Open sheds every admission for [bc_open_ns]; Half_open lets
   [bc_probes] probe connections through — all succeeding closes the
   breaker, any failing reopens it.  While still Closed but with the
   window failure rate at [bc_brownout] or above, every second admission
   is shed (brownout): partial load shedding before the full trip. *)

type breaker_state = Closed | Open | Half_open

let breaker_state_to_string = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

type breaker_config = {
  bc_consecutive : int;
  bc_rate : float;
  bc_min_samples : int;
  bc_window_ns : int;
  bc_open_ns : int;
  bc_probes : int;
  bc_brownout : float;
}

let breaker_config ?(consecutive = 3) ?(rate = 0.5) ?(min_samples = 8)
    ?(window_ns = 20_000) ?(open_ns = 10_000) ?(probes = 2) ?(brownout = 0.25) () =
  if consecutive <= 0 || min_samples <= 0 || probes <= 0 then
    invalid_arg "Guard.breaker_config: thresholds must be positive";
  if window_ns <= 0 || open_ns <= 0 then
    invalid_arg "Guard.breaker_config: windows must be positive";
  {
    bc_consecutive = consecutive;
    bc_rate = rate;
    bc_min_samples = min_samples;
    bc_window_ns = window_ns;
    bc_open_ns = open_ns;
    bc_probes = probes;
    bc_brownout = brownout;
  }

type breaker = {
  bcfg : breaker_config;
  mutable b_state : breaker_state;
  mutable b_events : (int * bool) list;  (* (ns, ok) outcomes, newest first *)
  mutable b_consecutive : int;  (* current failure streak *)
  mutable b_first_failure_ns : int;  (* streak start, -1 outside one *)
  mutable b_opened_at : int;
  mutable b_probes_admitted : int;
  mutable b_probe_successes : int;
  mutable b_brownout_tick : int;  (* alternator: shed every 2nd admit *)
  mutable b_opened : int;  (* times tripped, lifetime *)
  mutable b_shed : int;
  mutable b_reactions : int list;  (* first-failure -> open latency, newest first *)
}

type t = {
  max_conns : int;
  header_deadline_ns : int option;
  idle_deadline_ns : int option;
  reactor : Reactor.t;  (* the clock, its timers and tick *)
  trace : Trace.t;
  breaker : breaker option;
  watchdog : Watchdog.t option;
  mutable conns : conn list;
  mutable active_n : int;
      (* |conns|, maintained at admit/release so the admission check is
         O(1) — the list itself stays for drain/overdue iteration only *)
  released : Interest.t;  (* signalled whenever [conns] shrinks: drain parks on it *)
  mutable draining : bool;
  mutable drain_forced : bool;
  mutable admitted : int;
  mutable rejected_busy : int;
  mutable rejected_draining : int;
  mutable timed_out : int;
  mutable forced : int;
}

and conn = {
  g : t;
  ep : Chan.ep;
  opened_ns : int;
  mutable is_established : bool;
  mutable last_read_ns : int;
  mutable is_cut : bool;
  mutable is_released : bool;
      (* makes [release] idempotent without scanning the list to find
         out whether this conn was still in it *)
  mutable is_probe : bool;  (* admitted through a half-open breaker *)
  mutable is_reported : bool;  (* outcome already fed to the breaker *)
  mutable heart : Watchdog.heart option;
  mutable deadline : Reactor.timer_id option;
      (* the armed deadline timer, cancelled on release and cut *)
}

type decision = Admitted of conn | Busy | Draining | Shed

type stats = {
  s_active : int;
  s_admitted : int;
  s_rejected_busy : int;
  s_rejected_draining : int;
  s_timed_out : int;
  s_forced : int;
  s_shed : int;
  s_breaker_opened : int;
}

let create ~reactor ?header_deadline_ns ?idle_deadline_ns ?breaker ?watchdog
    ?(trace = Trace.null) ~max_conns () =
  if max_conns <= 0 then invalid_arg "Guard.create: max_conns <= 0";
  let breaker =
    match breaker with
    | None -> None
    | Some bcfg ->
        Some
          {
            bcfg;
            b_state = Closed;
            b_events = [];
            b_consecutive = 0;
            b_first_failure_ns = -1;
            b_opened_at = 0;
            b_probes_admitted = 0;
            b_probe_successes = 0;
            b_brownout_tick = 0;
            b_opened = 0;
            b_shed = 0;
            b_reactions = [];
          }
  in
  let t =
    {
      max_conns;
      header_deadline_ns;
      idle_deadline_ns;
      reactor;
      trace;
      breaker;
      watchdog;
      conns = [];
      active_n = 0;
      released = Interest.create ~name:"guard.drain";
      draining = false;
      drain_forced = false;
      admitted = 0;
      rejected_busy = 0;
      rejected_draining = 0;
      timed_out = 0;
      forced = 0;
    }
  in
  t

let now t = Clock.now (Reactor.clock t.reactor)

(* Guard events carry pid 0: admission happens before any compartment
   exists for the connection. *)
let guard_pid = 0

(* Clock-driven breaker transition: an open breaker ages into half-open
   once [bc_open_ns] has passed — checked lazily at every admission and
   report, so no timer fiber is needed. *)
let breaker_tick t b =
  if b.b_state = Open && now t - b.b_opened_at >= b.bcfg.bc_open_ns then begin
    b.b_state <- Half_open;
    b.b_probes_admitted <- 0;
    b.b_probe_successes <- 0;
    Trace.instant t.trace ~name:"guard.breaker.half_open" ~pid:guard_pid
  end

let prune_events t b =
  let n = now t in
  b.b_events <- List.filter (fun (ts, _) -> n - ts <= b.bcfg.bc_window_ns) b.b_events

(* Window failure rate; NaN-free: no samples means rate 0. *)
let failure_rate b =
  let total = List.length b.b_events in
  if total = 0 then 0.
  else
    float_of_int (List.length (List.filter (fun (_, ok) -> not ok) b.b_events))
    /. float_of_int total

let shed t b =
  b.b_shed <- b.b_shed + 1;
  Trace.instant t.trace ~name:"guard.breaker.shed" ~pid:guard_pid;
  Shed

(* What the breaker says about admitting one more connection:
   [`Admit is_probe] or [`Shed]. *)
let breaker_decision t =
  match t.breaker with
  | None -> `Admit false
  | Some b -> (
      breaker_tick t b;
      match b.b_state with
      | Open -> `Shed
      | Half_open ->
          if b.b_probes_admitted >= b.bcfg.bc_probes then `Shed
          else begin
            b.b_probes_admitted <- b.b_probes_admitted + 1;
            `Admit true
          end
      | Closed ->
          prune_events t b;
          if
            List.length b.b_events >= b.bcfg.bc_min_samples
            && failure_rate b >= b.bcfg.bc_brownout
          then begin
            (* Brownout: deterministic alternation, not a coin flip —
               every second admission is shed while the backend flaps. *)
            b.b_brownout_tick <- b.b_brownout_tick + 1;
            if b.b_brownout_tick mod 2 = 0 then `Shed else `Admit false
          end
          else `Admit false)

let overdue c =
  let n = now c.g in
  (match c.g.header_deadline_ns with
  | Some d when not c.is_established -> n - c.opened_ns > d
  | _ -> false)
  || match c.g.idle_deadline_ns with Some d -> n - c.last_read_ns > d | None -> false

let disarm_deadline c =
  match c.deadline with
  | Some tm ->
      Reactor.cancel_timer c.g.reactor tm;
      c.deadline <- None
  | None -> ()

let earlier a b = match (a, b) with Some x, Some y -> Some (min x y) | None, x | x, None -> x

(* Earliest instant at which a deadline of this connection passes: the
   header and idle deadlines while it is neither released nor cut
   ([overdue] is strict, hence the +1), and its heart's deadline until it
   is released.  [None] when no deadline applies. *)
let next_deadline c =
  if c.is_released then None
  else
    let heart = Option.bind c.heart Watchdog.next_deadline in
    if c.is_cut then heart
    else
      let hdr =
        match c.g.header_deadline_ns with
        | Some d when not c.is_established -> Some (c.opened_ns + d + 1)
        | _ -> None
      in
      let idle = Option.map (fun d -> c.last_read_ns + d + 1) c.g.idle_deadline_ns in
      earlier heart (earlier hdr idle)

(* Fire-and-re-check deadline: one timer per connection, armed at the
   earliest candidate instant.  When it fires a deadline has either truly
   passed (an overdue heart is cut — its worker cancelled, its channel
   aborted; an overdue connection is cut — the abort wakes the parked
   worker to EOF) or moved (bytes arrived, a beat, the connection
   established): arm a fresh timer at the new instant.  O(1) per event and
   no cancellation on the hot read path; release cancels the one timer a
   connection holds, so a finished connection leaves nothing on the
   wheel. *)
let rec arm_deadline c =
  c.deadline <-
    Option.map
      (fun at ->
        Reactor.at c.g.reactor ~ns:at (fun () ->
            c.deadline <- None;
            (match c.heart with Some h when Watchdog.overdue h -> Watchdog.cut h | _ -> ());
            if (not c.is_cut) && overdue c then cut c else arm_deadline c))
      (next_deadline c)

(* Re-arm anew when the deadlines themselves change: a fresh
   heart may be due before the armed timer, and a cut leaves only the
   heart's deadline. *)
and rearm c =
  disarm_deadline c;
  arm_deadline c

(* Abort the connection: the channel's interest sets die, so a worker
   parked on it wakes to EOF.  Only its heart's deadline still applies. *)
and sever c =
  c.is_cut <- true;
  Chan.abort c.ep;
  rearm c

and cut c =
  if not c.is_cut then begin
    c.g.timed_out <- c.g.timed_out + 1;
    Trace.instant c.g.trace ~name:"guard.cut" ~pid:guard_pid;
    sever c
  end

let admit t ep =
  if t.draining then begin
    t.rejected_draining <- t.rejected_draining + 1;
    Trace.instant t.trace ~name:"guard.reject.draining" ~pid:guard_pid;
    Draining
  end
  else
    (* Breaker before capacity: shedding exists precisely to refuse work
       without burning a slot or a doomed compartment spawn. *)
    match breaker_decision t with
    | `Shed -> shed t (Option.get t.breaker)
    | `Admit is_probe ->
        if t.active_n >= t.max_conns then begin
          t.rejected_busy <- t.rejected_busy + 1;
          Trace.instant t.trace ~name:"guard.reject.busy" ~pid:guard_pid;
          Busy
        end
        else begin
          let n = now t in
          let c =
            {
              g = t;
              ep;
              opened_ns = n;
              is_established = false;
              last_read_ns = n;
              is_cut = false;
              is_released = false;
              is_probe;
              is_reported = false;
              heart = None;
              deadline = None;
            }
          in
          t.conns <- c :: t.conns;
          t.active_n <- t.active_n + 1;
          t.admitted <- t.admitted + 1;
          arm_deadline c;
          Trace.instant t.trace ~name:"guard.admit" ~pid:guard_pid;
          Admitted c
        end

(* Feed one connection's outcome to the breaker (idempotent per conn).
   Servers call this where they decide degraded-vs-served; unreported
   connections simply don't move the breaker. *)
let report c ~ok =
  match c.g.breaker with
  | None -> ()
  | Some b ->
      if not c.is_reported then begin
        c.is_reported <- true;
        let t = c.g in
        let n = now t in
        breaker_tick t b;
        b.b_events <- (n, ok) :: b.b_events;
        prune_events t b;
        if ok then begin
          b.b_consecutive <- 0;
          b.b_first_failure_ns <- -1;
          if b.b_state = Half_open && c.is_probe then begin
            b.b_probe_successes <- b.b_probe_successes + 1;
            if b.b_probe_successes >= b.bcfg.bc_probes then begin
              b.b_state <- Closed;
              b.b_events <- [];
              b.b_brownout_tick <- 0;
              Trace.instant t.trace ~name:"guard.breaker.close" ~pid:guard_pid
            end
          end
        end
        else begin
          b.b_consecutive <- b.b_consecutive + 1;
          if b.b_first_failure_ns < 0 then b.b_first_failure_ns <- n;
          let trip ~fresh_detection =
            b.b_state <- Open;
            b.b_opened_at <- n;
            b.b_opened <- b.b_opened + 1;
            (* Reaction time: first failure of this streak to the trip —
               the MTTR benchmark's breaker row.  Only a trip from
               [Closed] is a detection: a failed half-open probe reopens
               at the very instant its failure is recorded, so the
               zero-length "reaction" it used to push dragged the
               benchmark's p50 to 0 while the max stayed honest. *)
            if fresh_detection then
              b.b_reactions <- (n - b.b_first_failure_ns) :: b.b_reactions;
            b.b_consecutive <- 0;
            b.b_first_failure_ns <- -1;
            Trace.instant t.trace ~name:"guard.breaker.open" ~pid:guard_pid
          in
          match b.b_state with
          | Half_open ->
              (* A failed probe reopens immediately. *)
              trip ~fresh_detection:false
          | Closed ->
              if
                b.b_consecutive >= b.bcfg.bc_consecutive
                || List.length b.b_events >= b.bcfg.bc_min_samples
                   && failure_rate b >= b.bcfg.bc_rate
              then trip ~fresh_detection:true
          | Open -> ()
        end
      end

let breaker_state t = Option.map (fun b -> b.b_state) t.breaker

let breaker_reactions t =
  match t.breaker with None -> [] | Some b -> List.rev b.b_reactions

let breaker_summary t =
  match t.breaker with
  | None -> "-"
  | Some b ->
      Printf.sprintf "%s opened=%d shed=%d"
        (breaker_state_to_string b.b_state)
        b.b_opened b.b_shed

let release c =
  (* Idempotent by flag, not by scanning: double releases (worker finally
     + drain force-clear) must be cheap no-ops, not O(n) list walks. *)
  if not c.is_released then begin
    c.is_released <- true;
    disarm_deadline c;
    (match c.heart with Some h -> Watchdog.disarm h | None -> ());
    let g = c.g in
    g.conns <- List.filter (fun c' -> c' != c) g.conns;
    g.active_n <- g.active_n - 1;
    Interest.signal g.released
  end

let established c =
  c.is_established <- true;
  c.last_read_ns <- now c.g;
  match c.heart with Some h -> Watchdog.beat h | None -> ()

(* Replace this connection's heart with a freshly armed one.  A watchdog
   cut leaves the heart [`Hung] — deliberately, so the stalled worker's
   own late beat dies as a contained [Hang] — but a supervisor retrying
   the worker in the same serve fiber (a pooled restamp) must not inherit
   that state: the new attempt's first delivered byte would beat the dead
   heart and be killed for its predecessor's hang.  Passed as the
   supervisor's [on_restart] hook, so every retry starts with a clean
   beat history. *)
let rearm_heart c =
  match c.g.watchdog with
  | None -> ()
  | Some w ->
      (match c.heart with Some h -> Watchdog.disarm h | None -> ());
      let h = Watchdog.arm ~name:"guard.conn" w in
      Watchdog.watch h c.ep;
      c.heart <- Some h;
      (* The fresh heart's deadline may come before the armed timer. *)
      rearm c

let ep c = c.ep

(* Deadline-aware reads: park for data or EOF.  A cut connection, or one
   found past its deadline (cut on the spot), reads as EOF.  The deadline
   lives on the timer wheel; a cut aborts the channel, which kills its
   interest sets and wakes the parked worker to EOF.  Delivered bytes
   restart the idle clock and beat the heart. *)
let guarded_read c n =
  if c.is_cut then Bytes.empty
  else if overdue c then begin
    cut c;
    Bytes.empty
  end
  else begin
    Chan.wait_rx c.ep;
    if c.is_cut then Bytes.empty
    else begin
      let b = Chan.read c.ep n in
      if Bytes.length b > 0 then begin
        c.last_read_ns <- now c.g;
        Option.iter Watchdog.beat c.heart
      end;
      b
    end
  end

let endpoint c =
  {
    Wedge_kernel.Fd_table.ep_read = (fun n -> guarded_read c n);
    ep_write = (fun b -> Chan.write c.ep b);
    (* The engine calls [ep_wait] before charging the syscall trap, so a
       parked worker burns zero fuel while its client is silent. *)
    ep_wait = (fun () -> if not (c.is_cut || overdue c) then Chan.wait_rx c.ep);
  }

let accept_loop t l ~reject ~serve =
  let rec loop () =
    match Chan.accept l with
    | None -> ()
    | Some ep ->
        (match admit t ep with
        | Admitted c ->
            Fiber.spawn (fun () ->
                Fun.protect
                  ~finally:(fun () -> release c)
                  (fun () ->
                    (* Arm the heartbeat from inside the serve fiber: the
                       watchdog cancels this fiber on a cut. *)
                    rearm_heart c;
                    (* A contained fault escaping the serve path (e.g. a
                       watchdog cancellation delivered outside any
                       compartment) kills this connection, never the
                       accept loop. *)
                    try serve c
                    with e when Wedge_core.Engine.fault_reason e <> None -> ()))
        | (Busy | Draining | Shed) as d ->
            (* Rejection is best-effort: a client that vanished before we
               answer must not take the accept loop down. *)
            (try reject d ep with _ -> ());
            (try Chan.close ep with _ -> ()));
        loop ()
  in
  loop ()

(* Drain: every remaining connection aborted (idempotent). *)
let force t =
  if not t.drain_forced then begin
    t.drain_forced <- true;
    Trace.instant t.trace ~name:"guard.drain.forced" ~pid:guard_pid;
    List.iter
      (fun c ->
        if not c.is_cut then begin
          t.forced <- t.forced + 1;
          sever c
        end)
      t.conns
  end

(* Already-forced stragglers whose workers never ran their finally: their
   slots are forfeit — mark each released so a late [release] stays a
   no-op and the active count agrees with the emptied list. *)
let forfeit t =
  List.iter
    (fun c ->
      c.is_released <- true;
      disarm_deadline c)
    t.conns;
  t.conns <- [];
  t.active_n <- 0;
  Interest.signal t.released

(* Drain state machine: accepting -> draining (listener down, in-flight
   finishing) -> forced (deadline timer or a stall: every remaining
   connection aborted) -> drained.  Termination is guaranteed: a stall
   while draining resolves to the force, and a stall after the force
   (workers that never ran their finally) forfeits the slots. *)
let drain ?deadline_ns t l =
  t.draining <- true;
  Trace.span_begin t.trace ~name:"guard.drain" ~pid:guard_pid;
  Chan.shutdown l;
  let timer =
    Option.map (fun d -> Reactor.after t.reactor ~ns:d (fun () -> force t)) deadline_ns
  in
  let settled () = t.conns = [] in
  let wait stall what = Interest.wait_or_stall t.released stall ~what ~ready:settled in
  if not (wait Fiber.Force_drain "guard drain") then begin
    force t;
    if not (wait Fiber.Forfeit_drain "guard drain (forced)") then forfeit t
  end;
  Option.iter (Reactor.cancel_timer t.reactor) timer;
  Trace.span_end t.trace ~name:"guard.drain" ~pid:guard_pid

let active t = t.active_n
let draining t = t.draining

(* Internal-consistency audit for the invariant oracle: the O(1) counter
   must agree with the list it shadows, and a released connection must
   never linger in the list (release removes it under the same flag that
   makes it idempotent — drift between the two means a double-admit or a
   lost release). *)
let self_check t =
  let n = List.length t.conns in
  if t.active_n <> n then
    Some
      (Printf.sprintf "guard: active_n = %d but %d live connections" t.active_n n)
  else
    match List.find_opt (fun c -> c.is_released) t.conns with
    | Some _ -> Some "guard: released connection still on the live list"
    | None ->
        if t.active_n > t.max_conns then
          Some
            (Printf.sprintf "guard: active_n = %d exceeds max_conns = %d"
               t.active_n t.max_conns)
        else None

let stats t =
  {
    s_active = t.active_n;
    s_admitted = t.admitted;
    s_rejected_busy = t.rejected_busy;
    s_rejected_draining = t.rejected_draining;
    s_timed_out = t.timed_out;
    s_forced = t.forced;
    s_shed = (match t.breaker with Some b -> b.b_shed | None -> 0);
    s_breaker_opened = (match t.breaker with Some b -> b.b_opened | None -> 0);
  }

let register_metrics ?(name = "guard") m t =
  Metrics.register m ~name ~kind:Metrics.Counter (fun () ->
      [
        ("guard.admitted", t.admitted);
        ("guard.rejected_busy", t.rejected_busy);
        ("guard.rejected_draining", t.rejected_draining);
        ("guard.timed_out", t.timed_out);
        ("guard.forced", t.forced);
      ]
      @
      match t.breaker with
      | None -> []
      | Some b ->
          [
            ("guard.breaker.opened", b.b_opened);
            ("guard.breaker.shed", b.b_shed);
          ]);
  Metrics.register m ~name:(name ^ ".gauges") (fun () ->
      ("guard.active", t.active_n)
      ::
      (match t.breaker with
      | None -> []
      | Some b ->
          [
            ( "guard.breaker.state",
              match b.b_state with Closed -> 0 | Half_open -> 1 | Open -> 2 );
          ]))
