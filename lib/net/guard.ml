(* Admission control, connection deadlines and hang detection shared by
   every server.

   A guard sits between a listener and the per-connection compartments:
   it caps concurrent connections (overflow gets a protocol-specific
   rejection and an immediate close), enforces a header deadline on the
   simulated clock so a slow-loris client is cut instead of pinning a
   worker forever, cuts a connection whose heart stops beating, and
   offers [drain] — stop accepting, let in-flight connections finish
   under a deadline, then force-close stragglers.

   Cutting always goes through [Chan.abort]: the worker compartment sees
   EOF on read and a contained [Fault_plan.Injected] on write, both of
   which the engine maps to a compartment fault.  Never [Chan.close],
   whose [Invalid_argument] on a subsequent worker write would escape
   containment and kill the listener.

   Everything that needs a clock runs on the reactor: the header and
   heart deadlines share one timer per connection, and the drain
   deadline is a timer too.  Nothing here polls. *)

module Fiber = Wedge_sim.Fiber
module Interest = Wedge_sim.Fiber.Interest
module Clock = Wedge_sim.Clock
module Trace = Wedge_sim.Trace
module Metrics = Wedge_sim.Metrics
module Reactor = Wedge_sim.Reactor

(* A connection's heart (hang detection): armed in the serve fiber
   ([arm_heart]), beaten by delivered bytes and [established], and cut
   by the connection's timer once its last beat is older than the hang
   deadline. *)
type heart = Unarmed | Alive | Hung | Disarmed

type t = {
  max_conns : int;
  header_deadline_ns : int option;
  hang_deadline_ns : int;  (* 0: no heart is ever armed *)
  reactor : Reactor.t;  (* the clock, its timers and tick *)
  trace : Trace.t;
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
  mutable hang_cuts : int;
  mutable beats : int;
}

and conn = {
  g : t;
  ep : Chan.ep;
  opened_ns : int;
  mutable is_established : bool;
  mutable is_cut : bool;
  mutable is_released : bool;
      (* makes [release] idempotent without scanning the list to find
         out whether this conn was still in it *)
  mutable heart : heart;
  mutable serve_fiber : int;  (* cancelled on a heart cut; captured at arm time *)
  mutable last_beat_ns : int;
  mutable deadline : Reactor.timer_id option;
      (* the armed deadline timer, cancelled on release and cut *)
}

type decision = Admitted of conn | Busy | Draining

type stats = {
  s_active : int;
  s_admitted : int;
  s_rejected_busy : int;
  s_rejected_draining : int;
  s_timed_out : int;
  s_forced : int;
  s_shed : int;
  s_hang_cuts : int;
  s_beats : int;
}

(* A beat on a cut heart: the worker woke up after teardown and must die
   contained, not resume half-torn-down. *)
exception Hang of string

let () =
  Wedge_core.Engine.register_fault_class (function Hang msg -> Some msg | _ -> None)

let create ~reactor ?header_deadline_ns ?hang_deadline_ns ?(trace = Trace.null) ~max_conns () =
  if max_conns <= 0 then invalid_arg "Guard.create: max_conns <= 0";
  (match hang_deadline_ns with
  | Some d when d <= 0 -> invalid_arg "Guard.create: hang_deadline_ns <= 0"
  | _ -> ());
  {
    max_conns;
    header_deadline_ns;
    hang_deadline_ns = Option.value hang_deadline_ns ~default:0;
    reactor;
    trace;
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
    hang_cuts = 0;
    beats = 0;
  }

let now t = Clock.now (Reactor.clock t.reactor)

(* Guard events carry pid 0: admission happens before any compartment
   exists for the connection. *)
let guard_pid = 0

let overdue c =
  match c.g.header_deadline_ns with
  | Some d when not c.is_established -> now c.g - c.opened_ns > d
  | _ -> false

let heart_overdue c = c.heart = Alive && now c.g - c.last_beat_ns > c.g.hang_deadline_ns

(* Cut an overdue heart: abort the channel, then cancel the serve fiber.
   Not a guard [cut]: the connection is not marked cut and [s_timed_out]
   does not move, so its header deadline still applies. *)
let cut_heart c =
  c.heart <- Hung;
  c.g.hang_cuts <- c.g.hang_cuts + 1;
  Trace.instant c.g.trace ~name:"watchdog.cut" ~pid:guard_pid;
  Chan.abort c.ep;
  Fiber.cancel
    ~reason:(Printf.sprintf "watchdog: guard.conn hung (deadline %d ns)" c.g.hang_deadline_ns)
    c.serve_fiber

let beat c =
  match c.heart with
  | Alive ->
      c.last_beat_ns <- now c.g;
      c.g.beats <- c.g.beats + 1
  | Hung ->
      raise
        (Hang
           (Printf.sprintf "watchdog: guard.conn beat after cut (deadline %d ns)"
              c.g.hang_deadline_ns))
  | Unarmed | Disarmed -> ()

let disarm_deadline c =
  match c.deadline with
  | Some tm ->
      Reactor.cancel_timer c.g.reactor tm;
      c.deadline <- None
  | None -> ()

let earlier a b = match (a, b) with Some x, Some y -> Some (min x y) | None, x | x, None -> x

(* Earliest instant at which a deadline of this connection passes: the
   header deadline while it is neither released nor cut, and its alive
   heart's deadline until it is released ([overdue] and [heart_overdue]
   are strict, hence the +1).  [None] when no deadline applies. *)
let next_deadline c =
  if c.is_released then None
  else
    let heart =
      if c.heart = Alive then Some (c.last_beat_ns + c.g.hang_deadline_ns + 1) else None
    in
    if c.is_cut then heart
    else
      let hdr =
        match c.g.header_deadline_ns with
        | Some d when not c.is_established -> Some (c.opened_ns + d + 1)
        | _ -> None
      in
      earlier heart hdr

(* Fire-and-re-check deadline: one timer per connection, armed at the
   earliest candidate instant.  When it fires a deadline has either truly
   passed (an overdue heart is cut — its worker cancelled, its channel
   aborted; an overdue connection is cut — the abort wakes the parked
   worker to EOF) or moved (bytes arrived, a beat, the connection
   established): arm a fresh timer at the new instant.  O(1) per event and
   no cancellation on the hot read path; release cancels the one timer a
   connection holds, so a finished connection leaves nothing on the
   wheel.  After the cuts no deadline can still be due; one that is would
   re-fire at every tick forever, so it fails loudly instead. *)
let rec arm_deadline c =
  c.deadline <-
    Option.map
      (fun at ->
        Reactor.at c.g.reactor ~ns:at (fun () ->
            c.deadline <- None;
            if heart_overdue c then cut_heart c;
            if (not c.is_cut) && overdue c then cut c
            else
              match next_deadline c with
              | Some at when at <= now c.g ->
                  invalid_arg "Guard: a deadline is still due after its timer fired"
              | _ -> arm_deadline c))
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
  else if t.active_n >= t.max_conns then begin
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
        is_cut = false;
        is_released = false;
        heart = Unarmed;
        serve_fiber = -1;
        last_beat_ns = n;
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

let release c =
  (* Idempotent by flag, not by scanning: double releases (worker finally
     + drain force-clear) must be cheap no-ops, not O(n) list walks. *)
  if not c.is_released then begin
    c.is_released <- true;
    disarm_deadline c;
    if c.heart = Alive then c.heart <- Disarmed;
    let g = c.g in
    g.conns <- List.filter (fun c' -> c' != c) g.conns;
    g.active_n <- g.active_n - 1;
    Interest.signal g.released
  end

let established c =
  c.is_established <- true;
  beat c

(* Arm this connection's heart in the calling fiber, the one a heart cut
   cancels.  A cut leaves the heart [Hung] for good, so the stalled
   worker's own late beat dies as a contained [Hang]. *)
let arm_heart c =
  if c.g.hang_deadline_ns > 0 then begin
    c.heart <- Alive;
    c.serve_fiber <- Fiber.fiber_id ();
    c.last_beat_ns <- now c.g;
    (* The heart's deadline may come before the armed timer. *)
    rearm c
  end

let ep c = c.ep

(* Deadline-aware reads: park for data or EOF.  A cut connection, or one
   found past its deadline (cut on the spot), reads as EOF.  The deadline
   lives on the timer wheel; a cut aborts the channel, which kills its
   interest sets and wakes the parked worker to EOF.  Delivered bytes
   beat the heart. *)
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
      if Bytes.length b > 0 then beat c;
      b
    end
  end

let endpoint c =
  {
    Wedge_kernel.Fd_table.ep_read = (fun n -> guarded_read c n);
    ep_write = (fun b off len -> Chan.write_sub c.ep b off len);
    (* The engine calls [ep_wait] before charging the syscall trap, so a
       parked worker enters no kernel while its client is silent. *)
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
                    (* Arm the heart from inside the serve fiber: a heart
                       cut cancels this fiber. *)
                    arm_heart c;
                    (* A contained fault escaping the serve path (e.g. a
                       heart cut's cancellation delivered outside any
                       compartment) kills this connection, never the
                       accept loop. *)
                    try serve c
                    with e when Wedge_core.Engine.fault_reason e <> None -> ()))
        | (Busy | Draining) as d ->
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
   finishing) -> forced (a stall: every remaining connection aborted) ->
   drained.  Termination is guaranteed: a stall
   while draining resolves to the force, and a stall after the force
   (workers that never ran their finally) forfeits the slots. *)
let drain t l =
  t.draining <- true;
  Trace.span_begin t.trace ~name:"guard.drain" ~pid:guard_pid;
  Chan.shutdown l;
  let settled () = t.conns = [] in
  let wait stall what = Interest.wait_or_stall t.released stall ~what ~ready:settled in
  if not (wait Fiber.Force_drain "guard drain") then begin
    force t;
    if not (wait Fiber.Forfeit_drain "guard drain (forced)") then forfeit t
  end;
  Trace.span_end t.trace ~name:"guard.drain" ~pid:guard_pid

let active t = t.active_n

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

(* Invariant for the oracle: no live connection's heart may be overdue
   once its timer had its tick (the reactor hook ticks before the
   oracle's checks). *)
let heart_check ?(slack_ns = 0) t =
  let n = now t in
  match
    List.find_opt
      (fun c -> c.heart = Alive && n - c.last_beat_ns > t.hang_deadline_ns + slack_ns)
      t.conns
  with
  | Some c ->
      Some
        (Printf.sprintf "watchdog: guard.conn overdue %d ns past its %d ns deadline, uncut"
           (n - c.last_beat_ns - t.hang_deadline_ns)
           t.hang_deadline_ns)
  | None -> None

let stats t =
  {
    s_active = t.active_n;
    s_admitted = t.admitted;
    s_rejected_busy = t.rejected_busy;
    s_rejected_draining = t.rejected_draining;
    s_timed_out = t.timed_out;
    s_forced = t.forced;
    s_shed = 0;
    s_hang_cuts = t.hang_cuts;
    s_beats = t.beats;
  }

let register_metrics m t =
  Metrics.register m ~name:"guard" ~kind:Metrics.Counter (fun () ->
      [
        ("guard.admitted", t.admitted);
        ("guard.rejected_busy", t.rejected_busy);
        ("guard.rejected_draining", t.rejected_draining);
        ("guard.timed_out", t.timed_out);
        ("guard.forced", t.forced);
      ]);
  Metrics.register m ~name:"guard.gauges" (fun () -> [ ("guard.active", t.active_n) ])
