(* Resource-governance tests: bounded channels with backpressure, listener
   backlog refusal, line-length caps, admission control under a hostile
   500-client flood, slow-loris deadlines on the simulated clock, oversized
   request rejection in the parsers, and graceful drain — in-flight
   connections finish, stragglers are force-cut, and the same seed replays
   the whole melee byte for byte. *)

module Kernel = Wedge_kernel.Kernel
module Fiber = Wedge_sim.Fiber
module Clock = Wedge_sim.Clock
module Cost_model = Wedge_sim.Cost_model
module Stats = Wedge_sim.Stats
module Fault_plan = Wedge_fault.Fault_plan
module Chan = Wedge_net.Chan
module Lineio = Wedge_net.Lineio
module Guard = Wedge_net.Guard
module Byzantine = Wedge_net.Byzantine
module Drbg = Wedge_crypto.Drbg
module Rsa = Wedge_crypto.Rsa
module W = Wedge_core.Wedge
module Env = Wedge_httpd.Httpd_env
module Simple = Wedge_httpd.Httpd_simple
module Http = Wedge_httpd.Http
module Client = Wedge_httpd.Https_client
module Pop3_env = Wedge_pop3.Pop3_env
module Pop3_wedge = Wedge_pop3.Pop3_wedge
module Service = Wedge_net.Service
module Reactor = Wedge_sim.Reactor
module Fd_table = Wedge_kernel.Fd_table

let check = Alcotest.check

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let mk_pop3 ?faults () =
  let k = Kernel.create ~costs:Cost_model.free ?faults () in
  Pop3_env.install k Pop3_env.default_users;
  let app = W.create_app k in
  W.boot app;
  (k, W.main_ctx app)

(* ---------- bounded channels ---------- *)

let test_backpressure_delivers_everything () =
  let got = Buffer.create 64 in
  Fiber.run (fun () ->
      let a, b = Chan.pair ~capacity:8 () in
      Fiber.spawn (fun () ->
          for i = 0 to 9 do
            (* 40 bytes through an 8-byte pipe: the writer must block on
               the watermark and resume as the reader drains. *)
            Chan.write_string b (String.make 4 (Char.chr (Char.code 'a' + i)))
          done;
          Chan.close b);
      let rec rd () =
        let chunk = Chan.read a 4 in
        if Bytes.length chunk > 0 then begin
          Buffer.add_bytes got chunk;
          rd ()
        end
      in
      rd ());
  check Alcotest.int "all 40 bytes delivered" 40 (Buffer.length got);
  check Alcotest.string "in order" "aaaabbbbcccc"
    (String.sub (Buffer.contents got) 0 12)

let test_backpressure_stall_is_contained () =
  (* A writer whose peer never reads must not wedge the scheduler: the
     write raises a contained [Chan.Stalled] once the system stalls. *)
  let outcome = ref `Silent in
  Fiber.run (fun () ->
      let a, _b = Chan.pair ~capacity:4 () in
      match
        for _ = 1 to 10 do
          Chan.write_string a "xxxx"
        done
      with
      | () -> outcome := `Unbounded
      | exception Chan.Stalled msg -> outcome := `Stalled msg);
  check Alcotest.bool "Chan.Stalled is contained" true
    (Wedge_core.Engine.fault_reason (Chan.Stalled "x") <> None);
  match !outcome with
  | `Stalled msg -> check Alcotest.bool "names the channel" true (contains msg "chan.write")
  | `Unbounded -> Alcotest.fail "capacity 4 accepted 40 bytes with no reader"
  | `Silent -> Alcotest.fail "writer never resolved"

let test_backlog_refuses_then_recovers () =
  Fiber.run (fun () ->
      let l = Chan.listener ~backlog:2 () in
      let c1 = Chan.connect l in
      let c2 = Chan.connect l in
      (match Chan.connect l with
      | _ -> Alcotest.fail "third connect exceeded backlog 2"
      | exception Chan.Refused _ -> ());
      check Alcotest.int "refusal counted" 1 (Probe.refused l);
      (* Accepting frees a slot: the next connect succeeds. *)
      (match Chan.accept l with
      | Some ep -> Chan.close ep
      | None -> Alcotest.fail "accept failed");
      let c3 = Chan.connect l in
      List.iter Chan.close [ c1; c2; c3 ];
      Chan.shutdown l)

let test_read_exact () =
  Fiber.run (fun () ->
      let a, b = Chan.pair () in
      Chan.write_string b "wxyz";
      Chan.close b;
      check (Alcotest.option Alcotest.bytes) "exact read"
        (Some (Bytes.of_string "wxyz"))
        (Chan.read_exact a 4);
      check Alcotest.bool "eof after drain" true (Chan.read_exact a 1 = None);
      check (Alcotest.option Alcotest.bytes) "zero-length read"
        (Some Bytes.empty) (Chan.read_exact a 0);
      let c, d = Chan.pair () in
      Chan.write_string d "ab";
      Chan.close d;
      (* Peer closed two bytes short: terminate with None, don't spin. *)
      check Alcotest.bool "short stream" true (Chan.read_exact c 4 = None))

(* ---------- line buffering ---------- *)

let test_lineio_many_lines () =
  Fiber.run (fun () ->
      let a, b = Chan.pair () in
      for i = 1 to 200 do
        Chan.write_string b (Printf.sprintf "line-%d\r\n" i)
      done;
      Chan.close b;
      let io = Lineio.of_chan a in
      for i = 1 to 200 do
        match Lineio.read_line io with
        | Some l -> check Alcotest.string "line content" (Printf.sprintf "line-%d" i) l
        | None -> Alcotest.failf "stream ended at line %d" i
      done;
      check Alcotest.bool "clean eof" true (Lineio.read_line io = None);
      check Alcotest.bool "no overflow" false (Lineio.overflowed io))

let test_lineio_overlong_line_poisons () =
  Fiber.run (fun () ->
      let a, b = Chan.pair () in
      Chan.write_string b "ok\r\n";
      (* The cap is 1 MiB, the '\r' of a CRLF counted: a line at it reads,
         one a byte past it poisons. *)
      let at_cap = String.make ((1 lsl 20) - 1) 'y' in
      Chan.write_string b (at_cap ^ "\r\n");
      Chan.write_string b (String.make (1 lsl 20) 'x' ^ "\r\nafter\r\n");
      Chan.close b;
      let io = Lineio.of_chan a in
      check (Alcotest.option Alcotest.string) "line before the bomb" (Some "ok")
        (Lineio.read_line io);
      check Alcotest.bool "line at the cap" true (Lineio.read_line io = Some at_cap);
      check Alcotest.bool "overlong line refused" true (Lineio.read_line io = None);
      check Alcotest.bool "buffer poisoned" true (Lineio.overflowed io);
      (* Poisoned is terminal: no resynchronising on attacker framing. *)
      check Alcotest.bool "stays closed" true (Lineio.read_line io = None))

(* ---------- flood: admission control under 500 hostile clients ---------- *)

type flood = {
  f_trace : string;
  f_tally : int * int * int * int * int;  (* completed, refused, rejected, cut, errors *)
  f_stats : Guard.stats;
}

let run_flood ~seed =
  let plan = Fault_plan.create ~seed () in
  Fault_plan.rule plan ~site:"chan.read" ~prob:0.03 [ Fault_plan.Drop; Fault_plan.Reset ];
  Fault_plan.rule plan ~site:"chan.write" ~prob:0.03 [ Fault_plan.Reset ];
  Fault_plan.disarm plan;
  let k, main = mk_pop3 ~faults:plan () in
  let l = Chan.listener ~costs:Cost_model.free ~faults:plan ~backlog:16 () in
  let guard =
    Guard.create ~reactor:(Reactor.create ~clock:k.Kernel.clock ()) ~max_conns:8 ()
  in
  let t = Byzantine.tally () in
  let is_rejection s = contains s "-ERR busy" in
  Fiber.run (fun () ->
      Fiber.spawn (fun () -> Service.serve_loop Pop3_wedge.service main guard l);
      Fault_plan.arm plan;
      for i = 1 to 500 do
        Fiber.spawn (fun () ->
            if i mod 4 = 0 then
              Byzantine.half_close t l ~request:"USER alice\r\nQUIT\r\n" ~is_rejection
            else Byzantine.oneshot t l ~request:"QUIT\r\n" ~is_rejection)
      done;
      Fiber.wait_until ~what:"flood resolved" (fun () -> Byzantine.total t = 500);
      Fault_plan.disarm plan;
      Guard.drain guard l);
  {
    f_trace = Fault_plan.trace plan;
    f_tally = (t.Byzantine.completed, t.refused, t.rejected, t.cut, t.errors);
    f_stats = Guard.stats guard;
  }

let test_flood_every_connection_resolves () =
  let f = run_flood ~seed:4242 in
  let completed, refused, rejected, cut, errors = f.f_tally in
  check Alcotest.int "all 500 clients resolved" 500
    (completed + refused + rejected + cut + errors);
  check Alcotest.int "no client errored" 0 errors;
  check Alcotest.bool "some clients served" true (completed > 0);
  check Alcotest.bool "backlog refused the burst" true (refused > 0);
  check Alcotest.bool "admission rejected overflow" true (rejected > 0);
  (* Every rejection the clients saw came from the guard. *)
  check Alcotest.bool "client and server rejection counts agree" true
    (rejected <= f.f_stats.Guard.s_rejected_busy + f.f_stats.Guard.s_rejected_draining);
  check Alcotest.bool "admissions happened" true (f.f_stats.Guard.s_admitted > 0);
  check Alcotest.int "drained to zero" 0 f.f_stats.Guard.s_active

let test_flood_replays_identically () =
  let a = run_flood ~seed:99 in
  let b = run_flood ~seed:99 in
  check Alcotest.string "byte-identical fault trace" a.f_trace b.f_trace;
  check Alcotest.bool "trace nonempty" true (String.length a.f_trace > 0);
  check
    Alcotest.(pair (pair int int) (pair int (pair int int)))
    "identical tallies"
    (let c, r, j, u, e = a.f_tally in
     ((c, r), (j, (u, e))))
    (let c, r, j, u, e = b.f_tally in
     ((c, r), (j, (u, e))));
  check Alcotest.int "identical admissions" a.f_stats.Guard.s_admitted
    b.f_stats.Guard.s_admitted;
  check Alcotest.int "identical busy rejections" a.f_stats.Guard.s_rejected_busy
    b.f_stats.Guard.s_rejected_busy

(* ---------- slow-loris ---------- *)

let test_slow_loris_cut_without_collateral () =
  let k, main = mk_pop3 () in
  let l = Chan.listener ~costs:Cost_model.free () in
  let r = Reactor.create ~clock:k.Kernel.clock () in
  let guard = Guard.create ~reactor:r ~header_deadline_ns:1_000 ~max_conns:4 () in
  let slow = Byzantine.tally () and good = Byzantine.tally () in
  let is_rejection s = contains s "-ERR busy" in
  Fiber.run ~on_switch:(Reactor.hook r) ~on_idle:(Reactor.idle r) (fun () ->
      Fiber.spawn (fun () -> Service.serve_loop Pop3_wedge.service main guard l);
      Fiber.spawn (fun () ->
          Byzantine.slow_loris slow l ~clock:k.Kernel.clock ~step_ns:500
            ~request:"USER alice\r\nPASS wonderland\r\nQUIT\r\n" ~is_rejection);
      (* A well-behaved client sharing the guard completes undisturbed. *)
      Byzantine.oneshot good l ~request:"QUIT\r\n" ~is_rejection;
      Fiber.wait_until ~what:"loris resolved" (fun () -> Byzantine.total slow = 1);
      Guard.drain guard l);
  check Alcotest.int "loris cut" 1 slow.Byzantine.cut;
  check Alcotest.int "good client completed" 1 good.Byzantine.completed;
  check Alcotest.bool "deadline cut counted" true
    ((Guard.stats guard).Guard.s_timed_out >= 1)

(* ---------- oversized requests ---------- *)

let test_pop3_oversized_command_rejected () =
  let k, main = mk_pop3 () in
  let l = Chan.listener ~costs:Cost_model.free () in
  let guard =
    Guard.create ~reactor:(Reactor.create ~clock:k.Kernel.clock ()) ~max_conns:4 ()
  in
  let t = Byzantine.tally () in
  Fiber.run (fun () ->
      Fiber.spawn (fun () -> Service.serve_loop Pop3_wedge.service main guard l);
      (* One byte past [Lineio]'s default 1 MiB line limit. *)
      Byzantine.oversized t l ~size:((1 lsl 20) + 1)
        ~is_rejection:(fun s -> contains s "command line too long");
      Guard.drain guard l);
  check Alcotest.int "oversized command answered -ERR and closed" 1 t.Byzantine.rejected

let test_http_oversized_request_gets_413 () =
  let k = Kernel.create ~costs:Cost_model.free () in
  let env = Env.install ~image_pages:80 k in
  let status = ref None in
  Fiber.run (fun () ->
      let client_ep, server_ep = Chan.pair ~costs:Cost_model.free () in
      Fiber.spawn (fun () ->
          Simple.serve_connection ~max_request_bytes:64 env server_ep);
      let rng = Drbg.create ~seed:5 in
      let r =
        Client.get ~rng ~pinned:env.Env.priv.Rsa.pub
          ~path:("/" ^ String.make 100 'a')
          client_ep
      in
      status := Option.map (fun resp -> resp.Http.status) r.Client.response);
  check (Alcotest.option Alcotest.int) "sealed 413" (Some 413) !status

(* ---------- drain ---------- *)

let test_drain_completes_in_flight () =
  let k, main = mk_pop3 () in
  let l = Chan.listener ~costs:Cost_model.free () in
  let guard =
    Guard.create ~reactor:(Reactor.create ~clock:k.Kernel.clock ()) ~max_conns:4 ()
  in
  let finished = ref false in
  Fiber.run (fun () ->
      Fiber.spawn (fun () -> Service.serve_loop Pop3_wedge.service main guard l);
      Fiber.spawn (fun () ->
          let ep = Chan.connect l in
          Chan.write_string ep "USER alice\r\n";
          (* Dawdle mid-session while the guard drains around us. *)
          for _ = 1 to 10 do
            Fiber.yield ()
          done;
          Chan.write_string ep "QUIT\r\n";
          let rec rd () = if Bytes.length (Chan.read ep 256) > 0 then rd () in
          rd ();
          Chan.close ep;
          finished := true);
      Fiber.wait_until ~what:"client admitted" (fun () -> Guard.active guard = 1);
      Guard.drain guard l);
  check Alcotest.bool "in-flight client finished its session" true !finished;
  check Alcotest.int "nothing force-closed" 0 (Guard.stats guard).Guard.s_forced;
  check Alcotest.int "drained" 0 (Guard.active guard)

let test_drain_forces_stragglers () =
  let k, main = mk_pop3 () in
  let l = Chan.listener ~costs:Cost_model.free () in
  let guard =
    Guard.create ~reactor:(Reactor.create ~clock:k.Kernel.clock ()) ~max_conns:4 ()
  in
  let t = Byzantine.tally () in
  Fiber.run (fun () ->
      Fiber.spawn (fun () -> Service.serve_loop Pop3_wedge.service main guard l);
      (* Connect and never speak: holds a slot forever. *)
      Fiber.spawn (fun () -> Byzantine.silent t l);
      Fiber.wait_until ~what:"holder admitted" (fun () -> Guard.active guard = 1);
      Guard.drain guard l;
      (* The straggler was force-cut, its client unblocked to EOF. *)
      Fiber.wait_until ~what:"holder unblocked" (fun () -> Byzantine.total t = 1));
  check Alcotest.int "straggler force-closed" 1 (Guard.stats guard).Guard.s_forced;
  check Alcotest.int "holder saw the cut" 1 t.Byzantine.cut;
  check Alcotest.int "no ghosts left" 0 (Guard.active guard);
  (* The listener is down for good: reconnecting is refused (contained),
     not a programming error. *)
  match Chan.connect l with
  | _ -> Alcotest.fail "connect succeeded after drain"
  | exception Chan.Refused _ -> ()

(* The stall order, enforced by rule: a server writing into a bounded
   channel whose client never reads, while the drain waits for it.  The
   stall resolves the bounded writer first — it dies contained with
   [Chan.Stalled], releasing its slot — so the drain finishes
   without forcing anyone. *)
let test_stall_sheds_writer_before_drain_forces () =
  let guard =
    Guard.create ~reactor:(Reactor.create ~clock:(Clock.create ()) ()) ~max_conns:2 ()
  in
  let l = Chan.listener ~capacity:8 () in
  let shed = ref None in
  Fiber.run (fun () ->
      Fiber.spawn (fun () ->
          Guard.accept_loop guard l
            ~reject:(fun _ _ -> ())
            ~serve:(fun c ->
              try
                for _ = 1 to 10 do
                  Chan.write_string (Guard.ep c) "xxxx"
                done
              with Chan.Stalled msg as e ->
                shed := Some msg;
                raise e));
      let client = Chan.connect l in
      Fiber.wait_until ~what:"writer admitted" (fun () -> Guard.active guard = 1);
      Guard.drain guard l;
      Chan.close client);
  (match !shed with
  | Some msg -> check Alcotest.bool "names the channel" true (contains msg "chan.write")
  | None -> Alcotest.fail "the stalled writer was not shed");
  check Alcotest.bool "Chan.Stalled is contained" true
    (Wedge_core.Engine.fault_reason (Chan.Stalled "x") <> None);
  check Alcotest.int "drain forced nobody" 0 (Guard.stats guard).Guard.s_forced;
  check Alcotest.int "drained" 0 (Guard.active guard)

(* A finished connection leaves nothing on the timer wheel: release and
   cut cancel its deadline timer, and a drain arms none — otherwise a
   stalled world would sleep to a deadline nobody is subject to. *)
let test_release_and_cut_cancel_deadline_timers () =
  let clock = Clock.create () in
  let r = Reactor.create ~clock () in
  let guard = Guard.create ~reactor:r ~header_deadline_ns:8_000 ~max_conns:2 () in
  let timers () = (Reactor.stats r).Reactor.timers in
  (* One connection admitted and served by [Guard.accept_loop], which
     releases it when [serve] returns. *)
  let serve_one serve =
    let admitted = (Guard.stats guard).Guard.s_admitted in
    let l = Chan.listener () in
    let a = Chan.connect l in
    Fiber.spawn (fun () -> Guard.accept_loop guard l ~reject:(fun _ _ -> ()) ~serve);
    Fiber.wait_until ~what:"connection released" (fun () ->
        (Guard.stats guard).Guard.s_admitted > admitted && Guard.active guard = 0);
    Chan.shutdown l;
    a
  in
  Fiber.run (fun () ->
      let a =
        serve_one (fun c ->
            Clock.charge clock 1_000;
            Guard.established c)
      in
      check Alcotest.int "released: no timer armed" 0 (timers ());
      check Alcotest.bool "idle has nothing to sleep to" false (Reactor.idle r ());
      check Alcotest.int "idle step left the clock alone" 1_000 (Clock.now clock);
      (* Past its header deadline: the due timer cuts the connection. *)
      let a2 =
        serve_one (fun _ ->
            Clock.charge clock 9_000;
            ignore (Reactor.idle r ()))
      in
      check Alcotest.int "cut: no timer armed" 0 (timers ());
      check Alcotest.int "the deadline cut it" 1 (Guard.stats guard).Guard.s_timed_out;
      let l = Chan.listener () in
      Guard.drain guard l;
      check Alcotest.int "drain: no timer armed" 0 (timers ());
      List.iter Chan.close [ a; a2 ])

let test_release_idempotent () =
  (* Regression: releasing a connection twice (worker finally + drain
     forfeit racing) must not drive the O(1) active counter negative or
     free another connection's slot. *)
  let guard =
    Guard.create ~reactor:(Reactor.create ~clock:(Clock.create ()) ()) ~max_conns:2 ()
  in
  (* Two workers park where the drain's cut cannot wake them, so the
     drain forfeits their slots; woken afterwards, each returns and
     accept_loop's finally releases its connection a second time. *)
  let workers = ref [] and returned = ref 0 in
  Fiber.run (fun () ->
      let l = Chan.listener () in
      let clients = [ Chan.connect l; Chan.connect l ] in
      Fiber.spawn (fun () ->
          Guard.accept_loop guard l ~reject:(fun _ _ -> ()) ~serve:(fun _ ->
              workers := Fiber.fiber_id () :: !workers;
              Fiber.park ~what:"worker deaf to the cut";
              incr returned));
      Fiber.wait_until ~what:"both admitted" (fun () -> List.length !workers = 2);
      check Alcotest.int "two active" 2 (Guard.active guard);
      Guard.drain guard l;
      check Alcotest.int "forfeit frees both slots" 0 (Guard.active guard);
      List.iter Fiber.unpark !workers;
      Fiber.wait_until ~what:"workers returned" (fun () -> !returned = 2);
      Fiber.yield ();
      check Alcotest.int "late releases free nothing" 0 (Guard.active guard);
      check (Alcotest.option Alcotest.string) "counter agrees with the list" None
        (Guard.self_check guard);
      List.iter Chan.close clients)

let test_refused_contained_under_supervision () =
  (* Connect-after-drain from a supervised compartment: Chan.Refused is
     in the registered contained-fault class, so the sthread dies cleanly
     and the supervisor reports the faulted attempt — the exception must
     not escape as a crash. *)
  let k = Kernel.create ~costs:Cost_model.free () in
  let app = W.create_app k in
  W.boot app;
  let main = W.main_ctx app in
  let l = Chan.listener ~costs:Cost_model.free () in
  let outcome = ref None in
  Fiber.run (fun () ->
      Chan.shutdown l;
      outcome :=
        Some
          (Wedge_core.Supervisor.supervise
             main
             (fun () ->
               W.sthread_create main (W.sc_create ())
                 (fun _ctx _ ->
                   ignore (Chan.connect l);
                   0)
                 0)));
  (match !outcome with
  | Some (Error reason) ->
      check Alcotest.bool "reason names the refusal" true (contains reason "listener is down")
  | Some (Ok _) -> Alcotest.fail "connect to a down listener succeeded"
  | None -> Alcotest.fail "supervision never resolved");
  check Alcotest.int "gave_up counted" 1 (Stats.get k.Kernel.stats "supervisor.gave_up");
  check Alcotest.int "one refusal counted on the listener" 1 (Probe.refused l)

(* ---------- idle fuel ---------- *)

(* Satellite regression: a reactor-parked connection makes no kernel
   entry while idle.  Every kernel entry bumps one [trap.*] stat, so the
   pin below proves the parked server never polls the kernel during the
   silence — the reactor wakes it only when the interest set turns
   ready.  The request after the silence still lands, proving the
   connection stayed live rather than merely quiet.  [herd] more
   connections parked in [Chan.wait_rx] beside the active one must
   change nothing: returns the stretch's simulated span.  The 64-byte
   [fd_read] that serves the request is pinned too: one trap, the
   per-byte network charge and nothing else. *)
let idle_stretch ~herd =
  let k = Kernel.create ~costs:Cost_model.default () in
  let clock = k.Kernel.clock in
  let app = W.create_app k in
  W.boot app;
  let ctx = W.main_ctx app in
  let r = Reactor.create ~clock () in
  let a, b = Chan.pair ~clock ~costs:Cost_model.free () in
  let idle = Array.init herd (fun _ -> Chan.pair ~clock ~costs:Cost_model.free ()) in
  let fd = W.add_endpoint ctx (Chan.to_endpoint b) Fd_table.perm_rw in
  let traps () =
    List.fold_left
      (fun n (key, v) -> if String.starts_with ~prefix:"trap." key then n + v else n)
      0 (Stats.to_list k.Kernel.stats)
  in
  let reads () = Stats.get k.Kernel.stats "trap.read" in
  let got = ref 0 and read = ref (0, 0, 0) in
  let idle_traps = ref (-1) and parked = ref 0 and span = ref 0 in
  Fiber.run ~on_switch:(Reactor.hook r) ~on_idle:(Reactor.idle r) (fun () ->
      Array.iter (fun (_, ep) -> Fiber.spawn (fun () -> Chan.wait_rx ~bytes:8 ep)) idle;
      Fiber.spawn (fun () ->
          let rec loop () =
            Chan.wait_rx ~bytes:64 b;
            if Chan.bytes_in_flight b >= 64 then begin
              let t0 = Clock.now clock and n0 = traps () and r0 = reads () in
              got := Bytes.length (W.fd_read ctx fd 64);
              read := (Clock.now clock - t0, traps () - n0, reads () - r0);
              loop ()
            end
          in
          loop ());
      (* Let the server and the herd reach their parks before the silence starts. *)
      Fiber.yield ();
      let t0 = Clock.now clock and traps0 = traps () in
      for _ = 1 to 1_000 do
        Clock.charge clock 1_000;
        Fiber.yield ()
      done;
      idle_traps := traps () - traps0;
      parked := List.length (Fiber.For_testing.parked_ids ());
      Chan.write_string a (String.make 64 'r');
      Fiber.wait_until ~what:"request served" (fun () -> !got = 64);
      span := Clock.now clock - t0;
      Array.iter (fun (ep, _) -> Chan.close ep) idle;
      Chan.close a);
  let label what = Printf.sprintf "%s (%d idle beside)" what herd in
  check Alcotest.int (label "idle stretch made no kernel entry") 0 !idle_traps;
  check Alcotest.int (label "server and herd parked, not polling") (herd + 1) !parked;
  check Alcotest.int (label "request after the silence still served") 64 !got;
  check
    Alcotest.(triple int int int)
    (label "64-byte fd_read: simulated ns, kernel entries, trap.read")
    (* 500 + 64 x 9 = 1,076 ns at the default costs *)
    (Cost_model.(default.syscall_trap + (64 * default.net_per_byte)), 1, 1)
    !read;
  !span

let test_idle_reactor_conn_enters_no_kernel () =
  let alone = idle_stretch ~herd:0 in
  check Alcotest.int "idle connections add no simulated ns" alone (idle_stretch ~herd:1_000)

(* A read the descriptor refuses never parks: the readiness wait comes
   before the trap only for a descriptor that may read.  A compartment
   holding a write-only descriptor for a silent guarded connection gets
   [Fd_error "... not readable"] at once; were it to wait first, it would
   park on a client that never speaks and the run would end in
   [Fiber.Deadlock]. *)
let test_refused_read_never_parks () =
  let k = Kernel.create ~costs:Cost_model.free () in
  let app = W.create_app k in
  W.boot app;
  let main = W.main_ctx app in
  let guard =
    Guard.create ~reactor:(Reactor.create ~clock:k.Kernel.clock ()) ~max_conns:1 ()
  in
  let refused = ref None and ret = ref None in
  Fiber.run (fun () ->
      let l = Chan.listener () in
      let client = Chan.connect l in
      Fiber.spawn (fun () ->
          Guard.accept_loop guard l ~reject:(fun _ _ -> ()) ~serve:(fun c ->
              let fd = W.add_endpoint main (Guard.endpoint c) Fd_table.perm_rw in
              let sc = W.sc_create () in
              W.sc_fd_add sc fd Fd_table.perm_w;
              let h =
                W.sthread_create main sc
                  (fun ctx _ ->
                    match W.fd_read ctx fd 16 with
                    | _ -> 1
                    | exception W.Fd_error msg ->
                        refused := Some msg;
                        0)
                  0
              in
              ret := Some (W.sthread_join main h)));
      Fiber.wait_until ~what:"connection served" (fun () -> !ret <> None);
      Chan.shutdown l;
      Chan.close client);
  check (Alcotest.option Alcotest.int) "the compartment returned" (Some 0) !ret;
  match !refused with
  | Some msg -> check Alcotest.bool "refused as not readable" true (contains msg "not readable")
  | None -> Alcotest.fail "the write-only descriptor was read"

let () =
  Alcotest.run "guard"
    [
      ( "channels",
        [
          Alcotest.test_case "backpressure delivers" `Quick
            test_backpressure_delivers_everything;
          Alcotest.test_case "backpressure stall contained" `Quick
            test_backpressure_stall_is_contained;
          Alcotest.test_case "backlog refusal" `Quick test_backlog_refuses_then_recovers;
          Alcotest.test_case "read_exact" `Quick test_read_exact;
        ] );
      ( "lineio",
        [
          Alcotest.test_case "many lines" `Quick test_lineio_many_lines;
          Alcotest.test_case "overlong line poisons" `Quick
            test_lineio_overlong_line_poisons;
        ] );
      ( "flood",
        [
          Alcotest.test_case "500 clients resolve" `Quick
            test_flood_every_connection_resolves;
          Alcotest.test_case "replays identically" `Quick test_flood_replays_identically;
        ] );
      ( "deadlines",
        [
          Alcotest.test_case "slow-loris cut" `Quick test_slow_loris_cut_without_collateral;
        ] );
      ( "oversized",
        [
          Alcotest.test_case "pop3 command cap" `Quick
            test_pop3_oversized_command_rejected;
          Alcotest.test_case "http 413" `Quick test_http_oversized_request_gets_413;
        ] );
      ( "drain",
        [
          Alcotest.test_case "completes in-flight" `Quick test_drain_completes_in_flight;
          Alcotest.test_case "forces stragglers" `Quick test_drain_forces_stragglers;
          Alcotest.test_case "stall sheds the writer before forcing" `Quick
            test_stall_sheds_writer_before_drain_forces;
          Alcotest.test_case "finished conns leave no timer" `Quick
            test_release_and_cut_cancel_deadline_timers;
        ] );
      ( "admission",
        [
          Alcotest.test_case "release idempotent" `Quick test_release_idempotent;
          Alcotest.test_case "refused contained under supervision" `Quick
            test_refused_contained_under_supervision;
        ] );
      ( "idle fuel",
        [
          Alcotest.test_case "reactor-parked conn charges none" `Quick
            test_idle_reactor_conn_enters_no_kernel;
          Alcotest.test_case "refused read never parks" `Quick test_refused_read_never_parks;
        ] );
    ]
