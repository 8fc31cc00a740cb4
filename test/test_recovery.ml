(* Self-healing tests: overflow-safe supervision backoff, fault-history
   reset for long-lived workers, supervision-tree escalation / quarantine
   / rest-for-one, watchdog hang detection (unit and against all three
   servers via a mid-header staller), circuit-breaker transitions, fiber
   cancellation delivery, the new engine fault sites, and byte-identical
   replay of a full fault-storm scenario. *)

module Fault_plan = Wedge_fault.Fault_plan
module Kernel = Wedge_kernel.Kernel
module Fiber = Wedge_sim.Fiber
module Clock = Wedge_sim.Clock
module Cost_model = Wedge_sim.Cost_model
module Stats = Wedge_sim.Stats
module Chan = Wedge_net.Chan
module Guard = Wedge_net.Guard
module Watchdog = Wedge_net.Watchdog
module Byzantine = Wedge_net.Byzantine
module W = Wedge_core.Wedge
module Supervisor = Wedge_core.Supervisor
module Service = Wedge_net.Service
module Scenarios = Wedge_check.Scenarios

let check = Alcotest.check

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let mk_ctx () =
  let k = Kernel.create ~costs:Cost_model.free () in
  let app = W.create_app ~image_pages:40 k in
  W.boot app;
  (k, W.main_ctx app)

(* ---------- satellite 1: overflow-safe, capped backoff ---------- *)

let test_backoff_no_overflow () =
  (* The old schedule [backoff_ns * (1 lsl (attempt - 1))] overflows at
     attempt 63 and shifts by a negative amount past 64.  The doubling
     fold must saturate instead. *)
  let p = Supervisor.policy ~backoff_ns:100 ~max_backoff_ns:max_int () in
  let b100 = Supervisor.backoff_for p ~attempt:100 in
  check Alcotest.bool "attempt 100 is non-negative" true (b100 >= 0);
  check Alcotest.bool "attempt 100 saturates high" true (b100 > 1_000_000);
  let big = Supervisor.policy ~backoff_ns:(max_int / 2) ~max_backoff_ns:max_int () in
  check Alcotest.bool "huge base stays positive" true
    (Supervisor.backoff_for big ~attempt:5 > 0)

let test_backoff_cap_pins_schedule () =
  let p = Supervisor.policy ~backoff_ns:100 ~max_backoff_ns:1_000 () in
  check Alcotest.int "attempt 1" 100 (Supervisor.backoff_for p ~attempt:1);
  check Alcotest.int "attempt 2" 200 (Supervisor.backoff_for p ~attempt:2);
  check Alcotest.int "attempt 4" 800 (Supervisor.backoff_for p ~attempt:4);
  check Alcotest.int "attempt 5 capped" 1_000 (Supervisor.backoff_for p ~attempt:5);
  check Alcotest.int "attempt 60 capped" 1_000 (Supervisor.backoff_for p ~attempt:60);
  (* The default cap (1 s of simulated time) leaves the historical small
     schedules untouched: 100+200+400 = 700 ns for three retries. *)
  let d = Supervisor.policy ~max_restarts:3 ~backoff_ns:100 () in
  let total =
    Supervisor.backoff_for d ~attempt:1
    + Supervisor.backoff_for d ~attempt:2
    + Supervisor.backoff_for d ~attempt:3
  in
  check Alcotest.int "pinned 700 ns schedule" 700 total

(* ---------- tree: escalation, quarantine, rest-for-one ---------- *)

let failing_fn () = raise (Fault_plan.Injected "boom")

let test_tree_escalates_and_quarantines () =
  let k, ctx = mk_ctx () in
  let node =
    Supervisor.node ~intensity:2 ~window_ns:10_000 ~quarantine_ns:20_000
      ~name:"t" ctx
  in
  let c = Supervisor.child ~policy:(Supervisor.policy ~max_restarts:5 ()) node ~name:"w" in
  (* Attempt stream: faults 1 and 2 fit the budget, the third escalates
     mid-retry. *)
  (match Supervisor.run_child_fn c failing_fn with
  | Supervisor.Gave_up { last_fault; _ } ->
      check Alcotest.bool "escalated" true (contains last_fault "escalated")
  | Supervisor.Done _ -> Alcotest.fail "expected Gave_up");
  check Alcotest.bool "quarantined" true
    (Supervisor.child_health c = Supervisor.Quarantined);
  check Alcotest.int "escalation counted" 1 (Stats.get k.Kernel.stats "supervisor.escalated");
  (* While quarantined: refused without burning an attempt — even a
     healthy function is not run. *)
  (match Supervisor.run_child_fn c (fun () -> 7) with
  | Supervisor.Gave_up { attempts; last_fault } ->
      check Alcotest.int "no attempt burned" 0 attempts;
      check Alcotest.bool "quarantined reason" true (contains last_fault "quarantined")
  | Supervisor.Done _ -> Alcotest.fail "quarantine must refuse");
  check Alcotest.int "refusal counted" 1
    (Stats.get k.Kernel.stats "supervisor.quarantine.refused");
  (* After the quarantine window the child runs again and recovers. *)
  Clock.charge k.Kernel.clock 25_000;
  (match Supervisor.run_child_fn c (fun () -> 7) with
  | Supervisor.Done { value; _ } -> check Alcotest.int "served after lift" 7 value
  | Supervisor.Gave_up _ -> Alcotest.fail "quarantine must lift");
  check Alcotest.int "lift counted" 1
    (Stats.get k.Kernel.stats "supervisor.quarantine.lift")

let test_rest_for_one_restarts_later_siblings () =
  let k, ctx = mk_ctx () in
  let node =
    Supervisor.node ~strategy:Supervisor.Rest_for_one ~intensity:1 ~window_ns:10_000
      ~name:"t" ctx
  in
  let first = Supervisor.child node ~name:"first" in
  let middle = Supervisor.child ~policy:(Supervisor.policy ~max_restarts:3 ()) node ~name:"middle" in
  let last = Supervisor.child node ~name:"last" in
  ignore (Supervisor.run_child_fn first (fun () -> 0));
  ignore (Supervisor.run_child_fn last (fun () -> 0));
  ignore (Supervisor.run_child_fn middle failing_fn);
  check Alcotest.bool "middle quarantined" true
    (Supervisor.child_health middle = Supervisor.Quarantined);
  (* Registration order is dependency order: only the later sibling is
     swept into Restarting. *)
  check Alcotest.bool "later sibling restarting" true
    (Supervisor.child_health last = Supervisor.Restarting);
  check Alcotest.bool "earlier sibling untouched" true
    (Supervisor.child_health first <> Supervisor.Restarting);
  check Alcotest.int "rest_for_one counted" 1
    (Stats.get k.Kernel.stats "supervisor.rest_for_one");
  check Alcotest.bool "tree renders" true
    (contains (Supervisor.tree_to_string node) "rest-for-one")

(* ---------- satellite 2: healthy period clears fault history ---------- *)

let test_healthy_reset_clears_history () =
  let k, ctx = mk_ctx () in
  let node =
    Supervisor.node ~intensity:2 ~window_ns:1_000_000 ~healthy_after_ns:5_000
      ~name:"t" ctx
  in
  let c = Supervisor.child ~policy:(Supervisor.policy ~max_restarts:1 ()) node ~name:"w" in
  (* One faulted run puts a fault in the (huge) window. *)
  ignore (Supervisor.run_child_fn c failing_fn);
  check Alcotest.bool "degraded after fault" true
    (Supervisor.child_health c = Supervisor.Degraded);
  (* A long clean stretch forgets the early crash: the worker is Healthy
     again and the old fault cannot contribute to a later escalation. *)
  Clock.charge k.Kernel.clock 10_000;
  (match Supervisor.run_child_fn c (fun () -> 1) with
  | Supervisor.Done _ -> ()
  | Supervisor.Gave_up _ -> Alcotest.fail "clean run");
  check Alcotest.bool "healthy after quiet period" true
    (Supervisor.child_health c = Supervisor.Healthy);
  check Alcotest.bool "reset counted" true
    (Stats.get k.Kernel.stats "supervisor.healthy_reset" >= 1);
  (* The forgotten fault must not count toward the budget: one fresh
     fault is within intensity 2 again (no escalation). *)
  (match Supervisor.run_child_fn c failing_fn with
  | Supervisor.Gave_up { last_fault; _ } ->
      check Alcotest.bool "plain gave-up, not escalation" false
        (contains last_fault "escalated")
  | Supervisor.Done _ -> Alcotest.fail "expected Gave_up");
  check Alcotest.int "no escalation" 0 (Stats.get k.Kernel.stats "supervisor.escalated")

(* ---------- fiber cancellation ---------- *)

let test_fiber_cancel_delivered_once () =
  let cancelled = ref 0 and resumed = ref 0 and id = ref (-1) in
  Fiber.run (fun () ->
      Fiber.spawn (fun () ->
          id := Fiber.fiber_id ();
          (try
             while true do
               Fiber.yield ()
             done
           with Fiber.Cancelled _ -> incr cancelled);
          (* The mark is consumed: later yields in the same fiber run. *)
          Fiber.yield ();
          incr resumed);
      Fiber.yield ();
      Fiber.cancel ~reason:"test" !id);
  check Alcotest.int "cancelled once" 1 !cancelled;
  check Alcotest.int "fiber continued after handling" 1 !resumed

(* ---------- watchdog ---------- *)

let test_watchdog_cuts_hung_heart () =
  let clock = Clock.create () in
  let w = Watchdog.create ~deadline_ns:1_000 clock in
  let cancelled = ref false in
  Fiber.run ~clock (fun () ->
      Fiber.spawn (fun () ->
          let h = Watchdog.arm ~name:"victim" w in
          try
            Watchdog.beat h;
            Clock.charge clock 5_000;
            (* hung: no beat while the clock runs past the deadline *)
            while true do
              Fiber.yield ()
            done
          with Fiber.Cancelled _ -> cancelled := true);
      Fiber.yield ();
      Watchdog.sweep w;
      Fiber.yield ());
  check Alcotest.bool "fiber cancelled" true !cancelled;
  check Alcotest.int "one cut" 1 (Watchdog.cuts w);
  check Alcotest.bool "sweep satisfied the invariant" true
    (Watchdog.self_check w = None)

let test_watchdog_beat_after_cut_raises_hang () =
  let clock = Clock.create () in
  let w = Watchdog.create ~deadline_ns:1_000 clock in
  let raised = ref false in
  Fiber.run ~clock (fun () ->
      let h = Watchdog.arm ~name:"zombie" w in
      Clock.charge clock 2_000;
      Watchdog.sweep w;
      check Alcotest.bool "hung" true (Watchdog.hung h);
      (try Watchdog.beat h with Watchdog.Hang _ -> raised := true));
  check Alcotest.bool "beat after cut raises Hang" true !raised;
  check Alcotest.bool "Hang is a contained engine fault" true
    (Wedge_core.Engine.fault_reason (Watchdog.Hang "x") <> None)

(* ---------- reactor / watchdog interplay ---------- *)

module Reactor = Wedge_sim.Reactor
module Fd_table = Wedge_kernel.Fd_table

(* A worker draining its connection through the guarded endpoint's reads
   keeps its heart beaten: the watchdog — pumped from the reactor's timer
   sweeps, no polling fiber anywhere — must never cut it, even though
   the session spans several deadlines end to end. *)
let test_reactor_reads_beat_heart () =
  let clock = Clock.create () in
  let r = Reactor.create ~clock () in
  let w = Watchdog.create ~deadline_ns:1_000 clock in
  let g = Guard.create ~watchdog:w ~reactor:r ~max_conns:2 () in
  let got = Buffer.create 64 in
  Fiber.run ~clock ~on_switch:(Reactor.hook r) (fun () ->
      let a, b = Chan.pair () in
      let c =
        match Guard.admit g b with
        | Guard.Admitted c -> c
        | _ -> Alcotest.fail "expected admission"
      in
      let e = Guard.endpoint c in
      Fiber.spawn (fun () ->
          (* Arm the heart from inside the serve fiber, as accept_loop
             does — a cut cancels precisely this fiber. *)
          Guard.rearm_heart c;
          let rec go () =
            let b = e.Fd_table.ep_read 8 in
            if Bytes.length b > 0 then begin
              Buffer.add_bytes got b;
              go ()
            end
          in
          go ();
          Guard.release c);
      (* Five bursts, each 0.6 deadlines apart: the whole session lasts
         3x the heartbeat deadline, but every delivered read beats the
         heart in passing. *)
      for i = 1 to 5 do
        Clock.charge clock 600;
        Chan.write_string a (Printf.sprintf "burst%03d" i)
      done;
      Chan.close a);
  check Alcotest.int "heart stayed beaten: no cut" 0 (Watchdog.cuts w);
  check Alcotest.int "every burst landed through ep_read" 40 (Buffer.length got);
  check Alcotest.bool "no heart left overdue" true (Watchdog.self_check w = None)

(* A parked worker whose client goes silent: the heart runs overdue and
   the reactor-pumped watchdog must cut it promptly — parking must not
   delay the cut past the deadline plus one sweep step, and the cut must
   wake the parked fiber to a clean EOF. *)
let test_reactor_cuts_parked_worker_within_deadline () =
  let clock = Clock.create () in
  let r = Reactor.create ~clock () in
  let w = Watchdog.create ~deadline_ns:1_000 clock in
  let g = Guard.create ~watchdog:w ~reactor:r ~max_conns:2 () in
  let woke_at = ref (-1) in
  let eof = ref false in
  Fiber.run ~clock ~on_switch:(Reactor.hook r) (fun () ->
      let a, b = Chan.pair () in
      let c =
        match Guard.admit g b with
        | Guard.Admitted c -> c
        | _ -> Alcotest.fail "expected admission"
      in
      let e = Guard.endpoint c in
      Fiber.spawn (fun () ->
          Guard.rearm_heart c;
          (try eof := Bytes.length (e.Fd_table.ep_read 8) = 0
           with Fiber.Cancelled _ -> eof := true);
          woke_at := Clock.now clock;
          Guard.release c);
      (* Let the worker arm its heart and park before the silence. *)
      Fiber.yield ();
      (* Silence: advance the clock in sweep-sized steps; every yield
         runs the reactor hook, which sweeps the watchdog. *)
      for _ = 1 to 10 do
        Clock.charge clock 300;
        Fiber.yield ()
      done;
      Chan.close a);
  check Alcotest.int "watchdog cut the parked worker" 1 (Watchdog.cuts w);
  check Alcotest.bool "cut surfaced as EOF in the parked read" true !eof;
  (* The sweep at t=1200 cuts the heart, but the cancelled worker lands
     behind the already-enqueued main fiber, so it resumes one scheduler
     rotation (one more 300 ns charge) later: deadline + sweep + rotation. *)
  check Alcotest.bool "cut landed within deadline + sweep + one rotation" true
    (!woke_at >= 0 && !woke_at <= 1_600)

(* ---------- circuit breaker ---------- *)

let breaker_guard clock =
  Guard.create ~reactor:(Reactor.create ~clock ())
    ~breaker:
      (Guard.breaker_config ~consecutive:3 ~rate:0.9 ~min_samples:100
         ~window_ns:1_000_000 ~open_ns:5_000 ~probes:2 ~brownout:0.99 ())
    ~max_conns:8 ()

let test_breaker_opens_sheds_and_recovers () =
  let clock = Clock.create () in
  Fiber.run ~clock (fun () ->
      let g = breaker_guard clock in
      let admit () =
        let a, b = Chan.pair () in
        match Guard.admit g b with
        | Guard.Admitted c -> (a, c)
        | _ -> Alcotest.fail "expected admission"
      in
      check Alcotest.bool "starts closed" true
        (Guard.breaker_state g = Some Guard.Closed);
      (* Three consecutive failures trip it. *)
      for i = 1 to 3 do
        let a, c = admit () in
        Clock.charge clock 100;
        Guard.report c ~ok:false;
        Guard.release c;
        Chan.close a;
        if i < 3 then
          check Alcotest.bool "still closed before streak" true
            (Guard.breaker_state g = Some Guard.Closed)
      done;
      check Alcotest.bool "open after streak" true
        (Guard.breaker_state g = Some Guard.Open);
      (* First failure at 100 ns, trip on the third at 300 ns. *)
      check (Alcotest.list Alcotest.int) "reaction recorded" [ 200 ]
        (Guard.breaker_reactions g);
      (* Open sheds without burning capacity. *)
      let a, b = Chan.pair () in
      (match Guard.admit g b with
      | Guard.Shed -> ()
      | _ -> Alcotest.fail "open breaker must shed");
      Chan.close a;
      check Alcotest.int "no slot burned" 0 (Guard.active g);
      (* After the cooling period: half-open probes; two successes close. *)
      Clock.charge clock 6_000;
      let a1, c1 = admit () in
      check Alcotest.bool "half-open on first probe" true
        (Guard.breaker_state g = Some Guard.Half_open);
      Guard.report c1 ~ok:true;
      Guard.release c1;
      Chan.close a1;
      let a2, c2 = admit () in
      Guard.report c2 ~ok:true;
      Guard.release c2;
      Chan.close a2;
      check Alcotest.bool "closed after probes" true
        (Guard.breaker_state g = Some Guard.Closed);
      check Alcotest.bool "summary mentions closed" true
        (contains (Guard.breaker_summary g) "closed"))

let test_breaker_failed_probe_reopens () =
  let clock = Clock.create () in
  Fiber.run ~clock (fun () ->
      let g = breaker_guard clock in
      let admit () =
        let a, b = Chan.pair () in
        match Guard.admit g b with
        | Guard.Admitted c -> (a, c)
        | _ -> Alcotest.fail "expected admission"
      in
      for _ = 1 to 3 do
        let a, c = admit () in
        Clock.charge clock 100;
        Guard.report c ~ok:false;
        Guard.release c;
        Chan.close a
      done;
      Clock.charge clock 6_000;
      let a, c = admit () in
      Guard.report c ~ok:false;
      Guard.release c;
      Chan.close a;
      check Alcotest.bool "failed probe reopens" true
        (Guard.breaker_state g = Some Guard.Open);
      check Alcotest.int "two trips recorded" 2
        (Guard.stats g).Guard.s_breaker_opened)

(* ---------- satellite 3: mid-header staller vs all three servers ------- *)

(* One hanging client against a watchdog-armed server: the hung worker is
   cut at the heartbeat deadline, the listener survives ([clean] — a
   terminating well-formed exchange — succeeds afterwards), and the
   tally accounts for the staller. *)
let staller_then_clean ~serve_loop ~prefix ~clean k l guard r w =
  let clock = k.Kernel.clock in
  let t = Byzantine.tally () in
  let served_after = ref false in
  Fiber.run ~clock ~on_switch:(Reactor.hook r) (fun () ->
      Fiber.spawn serve_loop;
      Fiber.spawn (fun () ->
          Byzantine.mid_header_stall t l ~clock ~step_ns:1_000 ~prefix
            ~is_rejection:(fun _ -> false) ());
      Fiber.wait_until ~what:"staller resolved" (fun () -> Byzantine.total t = 1);
      (* The staller is gone; the listener must still serve. *)
      served_after := clean ();
      Guard.drain guard l);
  check Alcotest.int "staller cut" 1 t.Byzantine.cut;
  check Alcotest.bool "watchdog cut the hung worker" true (Watchdog.cuts w >= 1);
  check Alcotest.bool "listener survived and served" true !served_after;
  check Alcotest.bool "no heart left overdue" true (Watchdog.self_check w = None)

(* A clean request/response exchange that is guaranteed to terminate:
   send [request], read to EOF (the request must drive the server to
   close), return whether [ok] accepts the response. *)
let clean_exchange l ~request ~ok () =
  match Chan.connect l with
  | exception _ -> false
  | ep ->
      Chan.write_string ep request;
      let buf = Buffer.create 64 in
      (try
         let rec go () =
           let b = Chan.read ep 4096 in
           if Bytes.length b > 0 then begin
             Buffer.add_bytes buf b;
             go ()
           end
         in
         go ()
       with _ -> ());
      (try Chan.close ep with _ -> ());
      ok (Buffer.contents buf)

let test_staller_httpd () =
  let k = Kernel.create ~costs:Cost_model.free () in
  let env = Wedge_httpd.Httpd_env.install ~image_pages:60 ~seed:11 k in
  let l = Chan.listener ~costs:Cost_model.free ~backlog:4 () in
  let w = Watchdog.create ~deadline_ns:4_000 k.Kernel.clock in
  let r = Reactor.create ~clock:k.Kernel.clock () in
  let guard = Guard.create ~reactor:r ~watchdog:w ~max_conns:2 () in
  staller_then_clean
    ~serve_loop:(fun () -> Service.serve_loop Wedge_httpd.Httpd_simple.service env guard l)
    ~prefix:"h\001\000partial-hello"
      (* plaintext at a TLS endpoint: the bad record type fails the
         handshake and closes the stream — a definite answer proves the
         listener is alive *)
    ~clean:(clean_exchange l ~request:"GET / HTTP/1.0\r\n\r\n" ~ok:(fun _ -> true))
    k l guard r w

let test_staller_pop3 () =
  let k = Kernel.create ~costs:Cost_model.free () in
  Wedge_pop3.Pop3_env.install k Wedge_pop3.Pop3_env.default_users;
  let app = W.create_app ~image_pages:60 k in
  W.boot app;
  let main_ctx = W.main_ctx app in
  let l = Chan.listener ~costs:Cost_model.free ~backlog:4 () in
  let w = Watchdog.create ~deadline_ns:4_000 k.Kernel.clock in
  let r = Reactor.create ~clock:k.Kernel.clock () in
  let guard = Guard.create ~reactor:r ~watchdog:w ~max_conns:2 () in
  staller_then_clean
    ~serve_loop:(fun () -> Service.serve_loop Wedge_pop3.Pop3_wedge.service main_ctx guard l)
    ~prefix:"USER ali"
    ~clean:
      (clean_exchange l ~request:"USER alice\r\nPASS wonderland\r\nSTAT\r\nQUIT\r\n"
         ~ok:(fun resp -> contains resp "+OK"))
    k l guard r w

let test_staller_sshd () =
  let k = Kernel.create ~costs:Cost_model.free () in
  let env = Wedge_sshd.Sshd_env.install ~image_pages:40 ~seed:12 k in
  let l = Chan.listener ~costs:Cost_model.free ~backlog:4 () in
  let w = Watchdog.create ~deadline_ns:4_000 k.Kernel.clock in
  let r = Reactor.create ~clock:k.Kernel.clock () in
  let guard = Guard.create ~reactor:r ~watchdog:w ~max_conns:2 () in
  (* The clean probe is a real SSH login: a garbage follow-up would hang
     the slave mid-packet (another watchdog cut, not a health proof). *)
  let clean () =
    match Chan.connect l with
    | exception _ -> false
    | ep -> (
        let rng = Wedge_crypto.Drbg.create ~seed:0x5AFE in
        match
          Wedge_sshd.Ssh_client.login ~rng
            ~pinned_rsa:env.Wedge_sshd.Sshd_env.host_rsa.Wedge_crypto.Rsa.pub
            ~pinned_dsa:env.Wedge_sshd.Sshd_env.host_dsa.Wedge_crypto.Dsa.pub
            ~user:"alice"
            (Wedge_sshd.Ssh_client.Password "wonderland")
            ep
        with
        | Ok conn ->
            Wedge_sshd.Ssh_client.close conn;
            true
        | Error _ ->
            (try Chan.close ep with _ -> ());
            false
        | exception _ ->
            (try Chan.close ep with _ -> ());
            false)
  in
  staller_then_clean
    ~serve_loop:(fun () -> Service.serve_loop Wedge_sshd.Sshd_privsep.service env guard l)
      (* truncated wire frame: claims 256 payload bytes, delivers 11 *)
    ~prefix:"D\001\000SSH-2.0-cha" ~clean k l guard r w

(* ---------- new engine fault sites ---------- *)

let test_fiber_stall_site_charges_clock () =
  let plan = Fault_plan.create ~seed:3 () in
  Fault_plan.rule plan ~site:"fiber.stall" ~prob:1.0 [ Fault_plan.Delay 8_000 ];
  let clock = Clock.create () in
  Fiber.run ~faults:plan ~clock (fun () -> Fiber.yield ());
  check Alcotest.bool "stall charged the clock" true (Clock.now clock >= 8_000)

let test_cgate_call_site_faults_contained () =
  let plan = Fault_plan.create ~seed:4 () in
  Fault_plan.rule plan ~site:"cgate.call" ~prob:1.0 [ Fault_plan.Crash ];
  Fault_plan.disarm plan;
  let k = Kernel.create ~costs:Cost_model.free ~faults:plan () in
  Wedge_pop3.Pop3_env.install k Wedge_pop3.Pop3_env.default_users;
  let app = W.create_app ~image_pages:60 k in
  W.boot app;
  let main_ctx = W.main_ctx app in
  let degraded = ref false in
  Fiber.run (fun () ->
      let a, b = Chan.pair ~costs:Cost_model.free () in
      Fiber.spawn (fun () ->
          (* No retries: a fresh attempt would re-greet and serve the
             remaining (innocent) QUIT, masking the crash. *)
          let r =
            Wedge_pop3.Pop3_wedge.serve_connection
              ~restart_policy:Supervisor.default_policy main_ctx b
          in
          degraded := r.Service.degraded);
      (* Let the handler start, then make every callgate call crash. *)
      Chan.write_string a "USER alice\r\n";
      Fault_plan.arm plan;
      Chan.write_string a "PASS wonderland\r\nQUIT\r\n";
      let rec drain_eof () =
        if Bytes.length (Chan.read a 4096) > 0 then drain_eof ()
      in
      (try drain_eof () with _ -> ());
      try Chan.close a with _ -> ());
  check Alcotest.bool "cgate crash contained into degraded conn" true !degraded;
  check Alcotest.bool "fault site charged" true
    (Stats.get k.Kernel.stats "fault.cgate" >= 1)

(* ---------- satellite: re-armed hearts on pooled restart ---------- *)

let test_rearm_heart_clears_stale_beat () =
  (* A supervised retry resumes in the same serve fiber after a backoff
     charge.  The heart armed at admission is then already past its
     deadline through no fault of the fresh attempt — without a rearm the
     next sweep cuts the retry for its predecessor's silence. *)
  let clock = Clock.create () in
  let w = Watchdog.create ~deadline_ns:1_000 clock in
  Fiber.run ~clock (fun () ->
      let g = Guard.create ~reactor:(Reactor.create ~clock ()) ~watchdog:w ~max_conns:2 () in
      let a, b = Chan.pair () in
      let c =
        match Guard.admit g b with
        | Guard.Admitted c -> c
        | _ -> Alcotest.fail "expected admission"
      in
      Clock.charge clock 2_000;
      Guard.rearm_heart c;
      Watchdog.sweep w;
      check Alcotest.int "no spurious cut after rearm" 0 (Watchdog.cuts w);
      Guard.release c;
      Chan.close a);
  check Alcotest.bool "no heart left overdue" true (Watchdog.self_check w = None)

let test_staller_pop3_pooled_restamp () =
  (* The integration shape: a pooled supervised worker is cut by the
     watchdog mid-header; the supervisor restamps from the frozen image
     (re-arming the heart on the way) and the listener keeps serving. *)
  let k = Kernel.create ~costs:Cost_model.free () in
  Wedge_pop3.Pop3_env.install k Wedge_pop3.Pop3_env.default_users;
  let app = W.create_app ~image_pages:60 k in
  W.boot app;
  let main_ctx = W.main_ctx app in
  let l = Chan.listener ~costs:Cost_model.free ~backlog:4 () in
  let w = Watchdog.create ~deadline_ns:4_000 k.Kernel.clock in
  let r = Reactor.create ~clock:k.Kernel.clock () in
  let guard = Guard.create ~reactor:r ~watchdog:w ~max_conns:2 () in
  staller_then_clean
    ~serve_loop:(fun () ->
      (* freeze needs a running fiber, so the pool is built here *)
      let service = Wedge_pop3.Pop3_wedge.service in
      let pool = service.Service.image main_ctx in
      let tree = Service.tree ~spawn:(W.Stamp pool) service main_ctx in
      Service.serve_loop ~supervision:tree service main_ctx guard l)
    ~prefix:"USER ali"
    ~clean:
      (clean_exchange l ~request:"USER alice\r\nPASS wonderland\r\nSTAT\r\nQUIT\r\n"
         ~ok:(fun resp -> contains resp "+OK"))
    k l guard r w;
  check Alcotest.bool "workers stamped from the pool" true
    (app.Wedge_core.Engine.pool_hits > 0)

(* ---------- storm determinism ---------- *)

let test_storm_replays_identically () =
  let s =
    match Scenarios.find "httpd_storm" with
    | Some s -> s
    | None -> Alcotest.fail "httpd_storm scenario missing"
  in
  let run () =
    s.Scenarios.s_run ~policy:(Fiber.Random 9) ~diff:false ~faults:true ~seed:5
  in
  let a = run () and b = run () in
  check Alcotest.string "same seed, same storm, byte-identical summary" a b

let () =
  Alcotest.run "recovery"
    [
      ( "backoff",
        [
          Alcotest.test_case "no overflow" `Quick test_backoff_no_overflow;
          Alcotest.test_case "cap pins schedule" `Quick test_backoff_cap_pins_schedule;
        ] );
      ( "tree",
        [
          Alcotest.test_case "escalate + quarantine" `Quick
            test_tree_escalates_and_quarantines;
          Alcotest.test_case "rest-for-one" `Quick test_rest_for_one_restarts_later_siblings;
          Alcotest.test_case "healthy reset" `Quick test_healthy_reset_clears_history;
        ] );
      ( "cancel",
        [ Alcotest.test_case "delivered once" `Quick test_fiber_cancel_delivered_once ] );
      ( "watchdog",
        [
          Alcotest.test_case "cuts hung heart" `Quick test_watchdog_cuts_hung_heart;
          Alcotest.test_case "beat after cut" `Quick test_watchdog_beat_after_cut_raises_hang;
        ] );
      ( "reactor",
        [
          Alcotest.test_case "guarded reads beat heart" `Quick
            test_reactor_reads_beat_heart;
          Alcotest.test_case "parked worker cut within deadline" `Quick
            test_reactor_cuts_parked_worker_within_deadline;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "open/shed/recover" `Quick test_breaker_opens_sheds_and_recovers;
          Alcotest.test_case "failed probe reopens" `Quick test_breaker_failed_probe_reopens;
        ] );
      ( "staller",
        [
          Alcotest.test_case "httpd" `Quick test_staller_httpd;
          Alcotest.test_case "pop3" `Quick test_staller_pop3;
          Alcotest.test_case "sshd" `Quick test_staller_sshd;
        ] );
      ( "rearm",
        [
          Alcotest.test_case "stale heart survives rearm" `Quick
            test_rearm_heart_clears_stale_beat;
          Alcotest.test_case "pooled staller restamp" `Quick
            test_staller_pop3_pooled_restamp;
        ] );
      ( "fault-sites",
        [
          Alcotest.test_case "fiber.stall" `Quick test_fiber_stall_site_charges_clock;
          Alcotest.test_case "cgate.call" `Quick test_cgate_call_site_faults_contained;
        ] );
      ( "determinism",
        [ Alcotest.test_case "storm replay" `Quick test_storm_replays_identically ] );
    ]
