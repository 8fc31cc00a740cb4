(* Self-healing tests: overflow-safe supervision backoff, hang detection
   by the guard's connection hearts (unit and against all three servers
   via a mid-header staller), the heart re-armed on every restart, fiber
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
module Reactor = Wedge_sim.Reactor
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

(* ---------- overflow-safe, capped backoff ---------- *)

(* The backoff [supervise] charges before each retry of a compartment
   that always faults, read off the clock: under free costs nothing else
   moves it, and [on_restart] fires right after each charge. *)
let backoffs ~retries =
  let k, main = mk_ctx () in
  let clock = k.Kernel.clock in
  let t0 = Clock.now clock in
  let marks = ref [ t0 ] in
  let outcome =
    Supervisor.supervise ~max_restarts:retries
      ~on_restart:(fun () -> marks := Clock.now clock :: !marks)
      main
    @@ fun () ->
    W.sthread_create main (W.sc_create ()) (fun _ _ -> raise (Fault_plan.Injected "always")) 0
  in
  (match outcome with
  | Supervisor.Gave_up { attempts; _ } ->
      check Alcotest.int "every retry ran" (retries + 1) attempts
  | Supervisor.Done _ -> Alcotest.fail "an always-faulting compartment exited");
  let rec steps = function a :: (b :: _ as rest) -> (a - b) :: steps rest | _ -> [] in
  (Array.of_list (List.rev (steps !marks)), Clock.now clock - t0)

let test_backoff_no_overflow () =
  (* A plain [100 * (1 lsl (attempt - 1))] overflows at attempt 63 and
     shifts by a negative amount past 64.  The schedule must saturate
     instead: 100 retries charge 100 x (2^24 - 1) ns for the first 24,
     then the 1 s cap 76 times, and never a negative amount. *)
  let b, total = backoffs ~retries:100 in
  check Alcotest.bool "no retry charges a negative or uncapped backoff" true
    (Array.for_all (fun ns -> ns >= 0 && ns <= 1_000_000_000) b);
  check Alcotest.int "attempt 100 saturates at the cap" 1_000_000_000 b.(99);
  check Alcotest.int "total charged" (100 * ((1 lsl 24) - 1) + (76 * 1_000_000_000)) total

let test_backoff_cap_pins_schedule () =
  let b, _ = backoffs ~retries:60 in
  check Alcotest.int "attempt 1" 100 b.(0);
  check Alcotest.int "attempt 2" 200 b.(1);
  check Alcotest.int "attempt 4" 800 b.(3);
  check Alcotest.int "attempt 24, last below the cap" (100 lsl 23) b.(23);
  check Alcotest.int "attempt 25 capped" 1_000_000_000 b.(24);
  check Alcotest.int "attempt 60 capped" 1_000_000_000 b.(59);
  (* The cap (1 s of simulated time) leaves the small schedules
     untouched: 100+200+400 = 700 ns for three retries. *)
  check Alcotest.int "pinned 700 ns schedule" 700 (b.(0) + b.(1) + b.(2))

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

(* ---------- connection hearts ---------- *)

(* Admit one connection through [Guard.accept_loop], which serves it in
   its own fiber with the heart armed and releases it when [serve]
   returns; the client's endpoint comes back.  The listener shuts down
   once the loop has taken the connection. *)
let accept_one g serve =
  let l = Chan.listener () in
  let a = Chan.connect l in
  Fiber.spawn (fun () -> Guard.accept_loop g l ~reject:(fun _ _ -> ()) ~serve);
  Fiber.yield ();
  Chan.shutdown l;
  check Alcotest.int "admitted under capacity" 1 (Guard.active g);
  a

(* An armed heart that stops beating is cut once, by its connection's
   own timer at the first reactor tick past the deadline, and the fiber
   that armed it is cancelled. *)
let test_watchdog_cuts_hung_heart () =
  let clock = Clock.create () in
  let r = Reactor.create ~clock () in
  let g = Guard.create ~reactor:r ~hang_deadline_ns:1_000 ~max_conns:2 () in
  let cancelled = ref false in
  Fiber.run ~clock (fun () ->
      ignore
        (accept_one g (fun c ->
             try
               Guard.established c;
               Clock.charge clock 5_000;
               (* hung: no beat while the clock runs past the deadline.  The
                  cut lands at the first yield after the tick; a bounded spin
                  lets a missing cut fail the test instead of hanging it. *)
               for _ = 1 to 16 do
                 Fiber.yield ()
               done
             with Fiber.Cancelled _ -> cancelled := true));
      Fiber.yield ();
      Reactor.hook r ();
      Fiber.yield ());
  check Alcotest.bool "fiber cancelled" true !cancelled;
  check Alcotest.int "one cut" 1 (Guard.stats g).Guard.s_hang_cuts;
  check Alcotest.bool "tick satisfied the invariant" true (Guard.heart_check g = None)

let test_watchdog_beat_after_cut_raises_hang () =
  let clock = Clock.create () in
  let r = Reactor.create ~clock () in
  let g = Guard.create ~reactor:r ~hang_deadline_ns:1_000 ~max_conns:2 () in
  let raised = ref false in
  Fiber.run ~clock (fun () ->
      ignore
        (accept_one g (fun c ->
             Clock.charge clock 2_000;
             Reactor.hook r ();
             check Alcotest.int "hung: cut once" 1 (Guard.stats g).Guard.s_hang_cuts;
             try Guard.established c with Guard.Hang _ -> raised := true)));
  check Alcotest.bool "beat after cut raises Hang" true !raised;
  check Alcotest.bool "Hang is a contained engine fault" true
    (Wedge_core.Engine.fault_reason (Guard.Hang "x") <> None)

(* ---------- reactor / heart interplay ---------- *)

module Fd_table = Wedge_kernel.Fd_table

(* A worker draining its connection through the guarded endpoint's reads
   keeps its heart beaten: the connection's timer on the reactor — no
   polling fiber anywhere — must never cut it, even though the session
   spans several deadlines end to end. *)
let test_reactor_reads_beat_heart () =
  let clock = Clock.create () in
  let r = Reactor.create ~clock () in
  let g = Guard.create ~hang_deadline_ns:1_000 ~reactor:r ~max_conns:2 () in
  let got = Buffer.create 64 in
  Fiber.run ~clock ~on_switch:(Reactor.hook r) (fun () ->
      let a =
        accept_one g (fun c ->
            (* accept_loop arms the heart in this serve fiber: a cut
               cancels precisely this fiber. *)
            let e = Guard.endpoint c in
            let rec go () =
              let b = e.Fd_table.ep_read 8 in
              if Bytes.length b > 0 then begin
                Buffer.add_bytes got b;
                go ()
              end
            in
            go ())
      in
      (* Five bursts, each 0.6 deadlines apart: the whole session lasts
         3x the heartbeat deadline, but every delivered read beats the
         heart in passing. *)
      for i = 1 to 5 do
        Clock.charge clock 600;
        Chan.write_string a (Printf.sprintf "burst%03d" i)
      done;
      Chan.close a);
  check Alcotest.int "heart stayed beaten: no cut" 0 (Guard.stats g).Guard.s_hang_cuts;
  check Alcotest.int "every burst landed through ep_read" 40 (Buffer.length got);
  check Alcotest.bool "no heart left overdue" true (Guard.heart_check g = None)

(* A parked worker whose client goes silent: the heart runs overdue and
   its timer must cut it promptly — parking must not delay the cut past
   the deadline plus one tick, and the cut must wake the parked fiber to
   a clean EOF. *)
let test_reactor_cuts_parked_worker_within_deadline () =
  let clock = Clock.create () in
  let r = Reactor.create ~clock () in
  let g = Guard.create ~hang_deadline_ns:1_000 ~reactor:r ~max_conns:2 () in
  let woke_at = ref (-1) in
  let eof = ref false in
  Fiber.run ~clock ~on_switch:(Reactor.hook r) (fun () ->
      let a =
        accept_one g (fun c ->
            let e = Guard.endpoint c in
            (try eof := Bytes.length (e.Fd_table.ep_read 8) = 0
             with Fiber.Cancelled _ -> eof := true);
            woke_at := Clock.now clock)
      in
      (* Let the worker arm its heart and park before the silence. *)
      Fiber.yield ();
      (* Silence: advance the clock in tick-sized steps; every yield
         runs the reactor hook, which fires the connection's timer. *)
      for _ = 1 to 10 do
        Clock.charge clock 300;
        Fiber.yield ()
      done;
      Chan.close a);
  check Alcotest.int "heart cut the parked worker" 1 (Guard.stats g).Guard.s_hang_cuts;
  check Alcotest.bool "cut surfaced as EOF in the parked read" true !eof;
  (* The tick at t=1200 cuts the heart, but the cancelled worker lands
     behind the already-enqueued main fiber, so it resumes one scheduler
     rotation (one more 300 ns charge) later: deadline + tick + rotation. *)
  check Alcotest.bool "cut landed within deadline + tick + one rotation" true
    (!woke_at >= 0 && !woke_at <= 1_600)

(* ---------- satellite 3: mid-header staller vs all three servers ------- *)

(* One hanging client against a server whose guard has a hang deadline:
   the hung worker is cut at its heart's deadline, the listener survives
   ([clean] — a terminating well-formed exchange — succeeds afterwards),
   and the tally accounts for the staller. *)
let staller_then_clean ~serve_loop ~prefix ~clean k l guard r =
  let clock = k.Kernel.clock in
  let t = Byzantine.tally () in
  let served_after = ref false in
  Fiber.run ~clock ~on_switch:(Reactor.hook r) ~on_idle:(Reactor.idle r) (fun () ->
      Fiber.spawn serve_loop;
      Fiber.spawn (fun () ->
          Byzantine.mid_header_stall t l ~prefix ~is_rejection:(fun _ -> false));
      Fiber.wait_until ~what:"staller resolved" (fun () -> Byzantine.total t = 1);
      (* The staller is gone; the listener must still serve. *)
      served_after := clean ();
      Guard.drain guard l);
  check Alcotest.int "staller cut" 1 t.Byzantine.cut;
  check Alcotest.bool "heart cut the hung worker" true
    ((Guard.stats guard).Guard.s_hang_cuts >= 1);
  check Alcotest.bool "listener survived and served" true !served_after;
  check Alcotest.bool "no heart left overdue" true (Guard.heart_check guard = None)

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
  let r = Reactor.create ~clock:k.Kernel.clock () in
  let guard = Guard.create ~reactor:r ~hang_deadline_ns:4_000 ~max_conns:2 () in
  staller_then_clean
    ~serve_loop:(fun () -> Service.serve_loop Wedge_httpd.Httpd_simple.service env guard l)
    ~prefix:"h\001\000partial-hello"
      (* plaintext at a TLS endpoint: the bad record type fails the
         handshake and closes the stream — a definite answer proves the
         listener is alive *)
    ~clean:(clean_exchange l ~request:"GET / HTTP/1.0\r\n\r\n" ~ok:(fun _ -> true))
    k l guard r

let test_staller_pop3 () =
  let k = Kernel.create ~costs:Cost_model.free () in
  Wedge_pop3.Pop3_env.install k Wedge_pop3.Pop3_env.default_users;
  let app = W.create_app ~image_pages:60 k in
  W.boot app;
  let main_ctx = W.main_ctx app in
  let l = Chan.listener ~costs:Cost_model.free ~backlog:4 () in
  let r = Reactor.create ~clock:k.Kernel.clock () in
  let guard = Guard.create ~reactor:r ~hang_deadline_ns:4_000 ~max_conns:2 () in
  staller_then_clean
    ~serve_loop:(fun () -> Service.serve_loop Wedge_pop3.Pop3_wedge.service main_ctx guard l)
    ~prefix:"USER ali"
    ~clean:
      (clean_exchange l ~request:"USER alice\r\nPASS wonderland\r\nSTAT\r\nQUIT\r\n"
         ~ok:(fun resp -> contains resp "+OK"))
    k l guard r

let test_staller_sshd () =
  let k = Kernel.create ~costs:Cost_model.free () in
  let env = Wedge_sshd.Sshd_env.install ~image_pages:40 ~seed:12 k in
  let l = Chan.listener ~costs:Cost_model.free ~backlog:4 () in
  let r = Reactor.create ~clock:k.Kernel.clock () in
  let guard = Guard.create ~reactor:r ~hang_deadline_ns:4_000 ~max_conns:2 () in
  (* The clean probe is a real SSH login: a garbage follow-up would hang
     the slave mid-packet (another heart cut, not a health proof). *)
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
    ~serve_loop:(fun () ->
      Guard.accept_loop guard l
        ~reject:(fun _ _ -> ())
        ~serve:(fun c -> Wedge_sshd.Sshd_wedge.serve_connection ~guard:c env (Guard.ep c)))
      (* truncated wire frame: claims 256 payload bytes, delivers 11 *)
    ~prefix:"D\001\000SSH-2.0-cha" ~clean k l guard r

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
  let returned = ref false in
  let got = Buffer.create 128 in
  Fiber.run (fun () ->
      let a, b = Chan.pair ~costs:Cost_model.free () in
      Fiber.spawn (fun () ->
          Wedge_pop3.Pop3_wedge.serve_connection main_ctx b;
          returned := true);
      let read_more () =
        let chunk = Chan.read a 4096 in
        Buffer.add_bytes got chunk;
        Bytes.length chunk > 0
      in
      (* Let the handler start, then make every callgate call crash. *)
      Chan.write_string a "USER alice\r\n";
      Fault_plan.arm plan;
      Chan.write_string a "PASS wonderland\r\n";
      (* The handler dies at the login's callgate call and pop3's one
         retry greets the client afresh; the same login kills the retry
         too, and the connection degrades. *)
      while
        (not (contains (Buffer.contents got) "send PASS\r\n+OK wedge-pop3 ready\r\n"))
        && read_more ()
      do
        ()
      done;
      Chan.write_string a "USER alice\r\nPASS wonderland\r\n";
      (try
         while read_more () do
           ()
         done
       with _ -> ());
      try Chan.close a with _ -> ());
  check Alcotest.bool "serve_connection returned" true !returned;
  check Alcotest.int "the handler and its retry died of it" 2
    (Stats.get k.Kernel.stats "fault.compartment");
  check Alcotest.int "retried once" 1 (Stats.get k.Kernel.stats "supervisor.restart");
  check Alcotest.int "then given up" 1 (Stats.get k.Kernel.stats "supervisor.gave_up");
  check Alcotest.int "cgate crash contained into degraded conn" 1
    (Stats.get k.Kernel.stats "pop3.degraded");
  check Alcotest.string "the retry greeted the client afresh, then the degraded farewell"
    "+OK wedge-pop3 ready\r\n+OK send PASS\r\n+OK wedge-pop3 ready\r\n+OK send PASS\r\n\
     -ERR internal server error, closing\r\n"
    (Buffer.contents got);
  check Alcotest.bool "fault site charged" true
    (Stats.get k.Kernel.stats "fault.cgate" >= 1);
  (* Degraded by a compartment's exhausted restarts, not by setup. *)
  check Alcotest.int "no setup fault" 0 (Stats.get k.Kernel.stats "fault.setup")

(* ---------- satellite: re-armed hearts on pooled restart ---------- *)

let test_rearm_heart_clears_stale_beat () =
  (* A supervised retry resumes in the same serve fiber after a backoff
     charge.  The heart armed at admission is then already past its
     deadline through no fault of the fresh attempt — without a rearm the
     next tick cuts the retry for its predecessor's silence. *)
  let clock = Clock.create () in
  let r = Reactor.create ~clock () in
  let g = Guard.create ~reactor:r ~hang_deadline_ns:1_000 ~max_conns:2 () in
  Fiber.run ~clock (fun () ->
      let a =
        accept_one g (fun c ->
            Clock.charge clock 2_000;
            Guard.rearm_heart c;
            Reactor.hook r ();
            check Alcotest.int "no spurious cut after rearm" 0 (Guard.stats g).Guard.s_hang_cuts)
      in
      Fiber.wait_until ~what:"connection released" (fun () -> Guard.active g = 0);
      Chan.close a);
  check Alcotest.bool "no heart left overdue" true (Guard.heart_check g = None)

(* The flat path's retry re-arms the connection's heart.  A cut leaves
   the heart hung, and the retry runs in the same serve fiber: without
   the re-arm its first beat raises [Guard.Hang] and kills it for its
   predecessor's silence, degrading a connection the retry could serve. *)
let test_flat_retry_rearms_heart () =
  let k, main = mk_ctx () in
  let clock = k.Kernel.clock in
  let r = Reactor.create ~clock () in
  let g = Guard.create ~reactor:r ~hang_deadline_ns:1_000 ~max_conns:2 () in
  let attempts = ref 0 and returned = ref false and degraded = ref false in
  Fiber.run ~clock ~on_switch:(Reactor.hook r) (fun () ->
      let a =
        accept_one g (fun c ->
            let body _ _ =
              incr attempts;
              if !attempts = 1 then begin
                (* Hung: no beat while the clock runs past the deadline;
                   the cut lands at a yield. *)
                Clock.charge clock 5_000;
                for _ = 1 to 16 do
                  Fiber.yield ()
                done
              end
              else Guard.established c;
              0
            in
            Service.run_worker ~guard:c ~spawn:W.Boot ~max_restarts:1
              ~degrade:(fun () -> degraded := true)
              main (Guard.ep c)
              (fun _ -> [ (W.sc_create (), body) ]);
            returned := true)
      in
      Fiber.wait_until ~what:"connection released" (fun () -> Guard.active g = 0);
      Chan.close a);
  check Alcotest.int "hung attempt, then the retry" 2 !attempts;
  check Alcotest.int "one cut" 1 (Guard.stats g).Guard.s_hang_cuts;
  check Alcotest.bool "run_worker returned" true !returned;
  check Alcotest.bool "retry served, connection not degraded" false !degraded;
  check Alcotest.int "the supervisor never gave up" 0
    (Stats.get k.Kernel.stats "supervisor.gave_up")

let test_staller_pop3_pooled_restamp () =
  (* The integration shape: the production pop3 worker, stamped from the
     frozen image, has its heart cut mid-header; the flat retry restamps
     it (re-arming the heart on the way) and the listener keeps
     serving. *)
  let k = Kernel.create ~costs:Cost_model.free () in
  Wedge_pop3.Pop3_env.install k Wedge_pop3.Pop3_env.default_users;
  let app = W.create_app ~image_pages:60 k in
  W.boot app;
  let main_ctx = W.main_ctx app in
  let l = Chan.listener ~costs:Cost_model.free ~backlog:4 () in
  let r = Reactor.create ~clock:k.Kernel.clock () in
  let guard = Guard.create ~reactor:r ~hang_deadline_ns:4_000 ~max_conns:2 () in
  staller_then_clean
    ~serve_loop:(fun () -> Service.serve_loop Wedge_pop3.Pop3_wedge.service main_ctx guard l)
    ~prefix:"USER ali"
    ~clean:
      (clean_exchange l ~request:"USER alice\r\nPASS wonderland\r\nSTAT\r\nQUIT\r\n"
         ~ok:(fun resp -> contains resp "+OK"))
    k l guard r;
  check Alcotest.bool "workers stamped from the pool" true
    (app.Wedge_core.Engine.pool_hits > 0);
  check Alcotest.bool "the cut worker was restarted" true
    (Stats.get k.Kernel.stats "supervisor.restart" >= 1)

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
          Alcotest.test_case "flat retry re-arms heart" `Quick test_flat_retry_rearms_heart;
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
