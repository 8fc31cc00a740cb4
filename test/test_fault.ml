(* Fault-injection and supervision tests: deterministic replay of a seeded
   fault plan, recovery from frame exhaustion, channel resets mid-request,
   one supervised attempt per compartment, callgate deadlines, recycled-gate respawn,
   enriched deadlock diagnostics, and a chaos soak that drives the Figure 2
   httpd through hundreds of connections at a 5% fault rate — the listener
   must survive every one of them, and the same seed must reproduce the
   same fault trace byte for byte. *)

module Fault_plan = Wedge_fault.Fault_plan
module Kernel = Wedge_kernel.Kernel
module Physmem = Wedge_kernel.Physmem
module Fiber = Wedge_sim.Fiber
module Clock = Wedge_sim.Clock
module Cost_model = Wedge_sim.Cost_model
module Stats = Wedge_sim.Stats
module Chan = Wedge_net.Chan
module Drbg = Wedge_crypto.Drbg
module Rsa = Wedge_crypto.Rsa
module W = Wedge_core.Wedge
module Supervisor = Wedge_core.Supervisor
module Env = Wedge_httpd.Httpd_env
module Simple = Wedge_httpd.Httpd_simple
module Client = Wedge_httpd.Https_client
module Http = Wedge_httpd.Http
module Pop3_env = Wedge_pop3.Pop3_env
module Pop3_wedge = Wedge_pop3.Pop3_wedge
module Pop3_client = Wedge_pop3.Pop3_client

let check = Alcotest.check

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let mk_app () =
  let k = Kernel.create ~costs:Cost_model.free () in
  let app = W.create_app k in
  (k, app, W.main_ctx app)

(* ---------- deterministic replay ---------- *)

let test_same_seed_same_trace () =
  let mk seed =
    let p = Fault_plan.create ~seed () in
    Fault_plan.rule p ~site:"chan.read" ~prob:0.3
      [ Fault_plan.Drop; Fault_plan.Reset; Fault_plan.Truncate ];
    Fault_plan.rule p ~site:"physmem.alloc" ~prob:0.1 [ Fault_plan.Enomem ];
    p
  in
  let roll_seq p =
    for _ = 1 to 200 do
      ignore (Fault_plan.roll_opt (Some p) ~site:"chan.read");
      ignore (Fault_plan.roll_opt (Some p) ~site:"physmem.alloc")
    done
  in
  let p1 = mk 42 and p2 = mk 42 and p3 = mk 43 in
  roll_seq p1;
  roll_seq p2;
  roll_seq p3;
  check Alcotest.string "same seed, same trace" (Fault_plan.trace p1) (Fault_plan.trace p2);
  check Alcotest.bool "trace nonempty" true (String.length (Fault_plan.trace p1) > 0);
  check Alcotest.bool "seeds distinguish runs" true
    (Fault_plan.trace p1 <> Fault_plan.trace p3);
  check Alcotest.int "injection counts agree" (Fault_plan.injections p1)
    (Fault_plan.injections p2)

let test_disarmed_plan_is_inert () =
  let p = Fault_plan.create ~seed:1 () in
  Fault_plan.rule p ~site:"chan.read" ~prob:1.0 [ Fault_plan.Reset ];
  Fault_plan.disarm p;
  for _ = 1 to 50 do
    check Alcotest.bool "no fire while disarmed" true
      (Fault_plan.roll_opt (Some p) ~site:"chan.read" = None)
  done;
  check Alcotest.int "op counter frozen while disarmed" 0
    (Probe.site_ops p ~site:"chan.read");
  Fault_plan.arm p;
  check Alcotest.bool "fires once armed" true (Fault_plan.roll_opt (Some p) ~site:"chan.read" <> None)

(* Five pop3 sessions (login, RETR 1, QUIT) on paper-shaped prices,
   with [faults] attached to the kernel, the channels and the scheduler.
   Returns the clock, the kernel stats and what the client saw. *)
let pop3_sessions ?faults () =
  let k = Kernel.create ~costs:Cost_model.default ?faults () in
  let clock = k.Kernel.clock in
  Pop3_env.install k Pop3_env.default_users;
  let app = W.create_app k in
  W.boot app;
  let main = W.main_ctx app in
  let transcript = Buffer.create 1024 in
  Fiber.run ~clock ?faults (fun () ->
      for _ = 1 to 5 do
        let client_ep, server_ep = Chan.pair ~clock ?faults () in
        Fiber.spawn (fun () -> Pop3_wedge.serve_connection main server_ep);
        let c = Pop3_client.connect client_ep in
        let logged = Pop3_client.login c ~user:"alice" ~password:"wonderland" in
        Printf.bprintf transcript "login=%b retr=%s\n" logged
          (Option.value (Pop3_client.retr c 1) ~default:"-");
        Pop3_client.quit c;
        Chan.close client_ep
      done);
  (Clock.now clock, Stats.to_list k.Kernel.stats, Buffer.contents transcript)

(* An armed plan whose every rule has probability 0 rolls at each of the
   eight hook sites but never fires, so the run is indistinguishable from
   one with no plan at all. *)
let test_zero_rate_plan_is_trace_neutral () =
  let plan = Fault_plan.create ~seed:1 () in
  List.iter
    (fun site -> Fault_plan.rule plan ~site ~prob:0. [ Fault_plan.Reset ])
    [
      "cgate.call"; "chan.connect"; "chan.read"; "chan.write"; "fiber.stall";
      "physmem.alloc"; "pool.freeze"; "pool.stamp";
    ];
  let clock0, stats0, transcript0 = pop3_sessions () in
  let clock, stats, transcript = pop3_sessions ~faults:plan () in
  let mail = List.hd (List.hd Pop3_env.default_users).Pop3_env.mails in
  check Alcotest.string "every session served"
    (String.concat "" (List.init 5 (fun _ -> "login=true retr=" ^ mail ^ "\n")))
    transcript0;
  check Alcotest.int "simulated clock without a plan" 592_656 clock0;
  check Alcotest.int "same simulated clock" clock0 clock;
  check Alcotest.(list (pair string int)) "same kernel stats" stats0 stats;
  check Alcotest.string "same transcript" transcript0 transcript;
  check Alcotest.int "nothing injected" 0 (Fault_plan.injections plan);
  check Alcotest.int "chan.read rolled" 45 (Probe.site_ops plan ~site:"chan.read");
  check Alcotest.int "physmem.alloc rolled" 310 (Probe.site_ops plan ~site:"physmem.alloc")

(* ---------- frame exhaustion ---------- *)

let test_frame_exhaustion_and_recovery () =
  let plan = Fault_plan.create () in
  let pm = Physmem.create ~faults:plan () in
  let f1 = Physmem.alloc pm in
  let _f2 = Physmem.alloc pm in
  Fault_plan.rule plan ~site:"physmem.alloc" ~prob:1.0 [ Fault_plan.Enomem ];
  (match Physmem.alloc pm with
  | _ -> Alcotest.fail "expected Enomem"
  | exception Physmem.Enomem -> ());
  Fault_plan.disarm plan;
  Physmem.decref pm f1;
  let f3 = Physmem.alloc pm in
  check Alcotest.bool "freed frame reusable" true (f3 >= 0);
  check Alcotest.int "frames accounted" 2 (Physmem.frames_in_use pm)

let test_supervisor_recovers_from_injected_enomem () =
  let plan = Fault_plan.create ~seed:11 () in
  Fault_plan.disarm plan;
  let k = Kernel.create ~costs:Cost_model.free ~faults:plan () in
  let app = W.create_app k in
  let main = W.main_ctx app in
  W.boot app;
  (* [fail] arms exhaustion inside the compartment: its very next frame
     allocation — its own heap growth — fails. *)
  let attempt ~fail =
    Supervisor.supervise main @@ fun () ->
    W.sthread_create main (W.sc_create ())
      (fun ctx _ ->
        if fail then begin
          Fault_plan.rule plan ~site:"physmem.alloc" ~prob:1.0 [ Fault_plan.Enomem ];
          Fault_plan.arm plan
        end;
        let b = W.malloc ctx 4096 in
        W.write_u8 ctx b 7;
        W.read_u8 ctx b)
      0
  in
  let first = attempt ~fail:true in
  Fault_plan.disarm plan;
  (match first with
  | Error reason -> check Alcotest.string "contained as exhaustion" "out of memory" reason
  | Ok _ -> Alcotest.fail "an exhausted compartment exited");
  check Alcotest.int "fault contained and counted" 1
    (Stats.get k.Kernel.stats "fault.compartment");
  (* The next compartment runs on the same kernel, once, unharmed. *)
  check (Alcotest.result Alcotest.int Alcotest.string) "next compartment served" (Ok 7)
    (attempt ~fail:false)

(* ---------- channel faults ---------- *)

let body_of (r : Client.result) =
  match r.Client.response with Some { Http.status = 200; body } -> Some body | _ -> None

let test_channel_reset_mid_request () =
  let k = Kernel.create ~costs:Cost_model.free () in
  let env = Env.install ~image_pages:80 k in
  let plan = Fault_plan.create ~seed:5 () in
  Fault_plan.rule plan ~site:"chan.read" ~prob:0. [ Fault_plan.Reset ];
  (* From the fourth read on, the next read resets the connection, once. *)
  let target () =
    if Fault_plan.injections plan > 0 then
      Fault_plan.rule plan ~site:"chan.read" ~prob:0. [ Fault_plan.Reset ]
    else if Probe.site_ops plan ~site:"chan.read" >= 3 then
      Fault_plan.rule plan ~site:"chan.read" ~prob:1.0 [ Fault_plan.Reset ]
  in
  let first = ref (Some "sentinel") in
  Fiber.run ~on_switch:target (fun () ->
      let client_ep, server_ep = Chan.pair ~costs:Cost_model.free ~faults:plan () in
      Fiber.spawn (fun () -> Simple.serve_connection env server_ep);
      let rng = Drbg.create ~seed:7 in
      match Client.get ~rng ~pinned:env.Env.priv.Rsa.pub ~path:"/index.html" client_ep with
      | r -> first := body_of r
      | exception Fault_plan.Injected _ -> first := None);
  check (Alcotest.option Alcotest.string) "reset connection did not serve" None !first;
  check Alcotest.int "exactly one injection" 1 (Fault_plan.injections plan);
  Fault_plan.disarm plan;
  (* The same environment serves the next, clean connection. *)
  let second = ref None in
  Fiber.run (fun () ->
      let client_ep, server_ep = Chan.pair ~costs:Cost_model.free () in
      Fiber.spawn (fun () -> Simple.serve_connection env server_ep);
      let rng = Drbg.create ~seed:8 in
      second := body_of (Client.get ~rng ~pinned:env.Env.priv.Rsa.pub ~path:"/index.html" client_ep));
  check (Alcotest.option Alcotest.string) "clean connection serves" (Some Env.index_body)
    !second

let test_connect_fault_refuses_connection () =
  let plan = Fault_plan.create ~seed:2 () in
  Fault_plan.rule plan ~site:"chan.connect" ~prob:1.0 [ Fault_plan.Reset ];
  Fiber.run (fun () ->
      let l = Chan.listener ~costs:Cost_model.free ~faults:plan () in
      (match Chan.connect l with
      | _ -> Alcotest.fail "expected refused connection"
      | exception Fault_plan.Injected _ -> ());
      Fault_plan.rule plan ~site:"chan.connect" ~prob:0. [ Fault_plan.Reset ];
      check Alcotest.int "nothing queued for accept" 0 (Probe.pending l);
      let ep = Chan.connect l in
      Chan.write_string ep "hi";
      check Alcotest.int "second connection established" 1 (Probe.pending l);
      Chan.shutdown l)

(* ---------- supervisor ---------- *)

(* One supervised attempt: a faulted compartment comes back as [Error]
   with its reason, counted once, and charges the clock nothing beyond
   the compartment itself (free costs here, so nothing at all). *)
let test_faulted_attempt_charges_nothing () =
  let k, app, main = mk_app () in
  W.boot app;
  let t0 = Clock.now k.Kernel.clock in
  let runs = ref 0 in
  let outcome =
    Supervisor.supervise main @@ fun () ->
    W.sthread_create main (W.sc_create ())
      (fun _ _ ->
        incr runs;
        raise (Fault_plan.Injected "always crashes"))
      0
  in
  (match outcome with
  | Error reason -> check Alcotest.bool "reason preserved" true (contains reason "always crashes")
  | Ok _ -> Alcotest.fail "expected a fault");
  check Alcotest.int "run once" 1 !runs;
  check Alcotest.int "no clock charged" 0 (Clock.now k.Kernel.clock - t0);
  check Alcotest.int "fault counted" 1 (Stats.get k.Kernel.stats "fault.compartment");
  check Alcotest.int "give-up counted" 1 (Stats.get k.Kernel.stats "supervisor.gave_up")

(* A fault while the compartment is being built — here an injected
   crash at the ["pool.stamp"] site, after the child process exists —
   is an attempt that faulted: the supervisor marks it ["create: "], and
   the engine reaps the half-built process before the fault reaches it,
   so no process outlives its failed creation. *)
let test_creation_fault_unwinds () =
  let plan = Fault_plan.create ~seed:5 () in
  Fault_plan.rule plan ~site:"pool.stamp" ~prob:1.0 [ Fault_plan.Crash ];
  Fault_plan.disarm plan;
  let k = Kernel.create ~costs:Cost_model.free ~faults:plan () in
  let app = W.create_app k in
  W.boot app;
  let main = W.main_ctx app in
  let pool = W.Pool.freeze ~name:"w" main (W.sc_create ()) in
  let live = Kernel.live_processes k in
  let ran = ref false in
  Fault_plan.arm plan;
  let outcome =
    Supervisor.supervise main @@ fun () ->
    W.sthread_create ~spawn:(W.Stamp pool) main (W.sc_create ())
      (fun _ _ ->
        ran := true;
        0)
      0
  in
  Fault_plan.disarm plan;
  (match outcome with
  | Error reason ->
      check Alcotest.bool "creation fault marked" true (contains reason "create:");
      check Alcotest.bool "names the stamp site" true (contains reason "pool.stamp")
  | Ok _ -> Alcotest.fail "a crashing stamp created a compartment");
  check Alcotest.bool "the body never ran" false !ran;
  check Alcotest.int "half-built sthread reaped" live (Kernel.live_processes k);
  check Alcotest.int "fault counted" 1 (Stats.get k.Kernel.stats "fault.compartment")

(* ---------- recycled respawn ---------- *)

let test_recycled_gate_fault_respawns () =
  let k, app, main = mk_app () in
  W.boot app;
  let sc = W.sc_create () in
  let first = ref true in
  let gate =
    W.sc_cgate_add ~spawn:W.Recycle main sc ~name:"fragile"
      ~entry:(fun _ ~trusted:_ ~arg ->
        if !first then begin
          first := false;
          raise (Fault_plan.Injected "gate member crashed")
        end
        else arg + 5)
      ~cgsc:(W.sc_create ()) ~trusted:0
  in
  let h =
    W.sthread_create main sc
      (fun ctx _ ->
        let a = W.cgate ctx gate ~perms:(W.sc_create ()) ~arg:1 in
        let b = W.cgate ctx gate ~perms:(W.sc_create ()) ~arg:1 in
        (a * 100) + b)
      0
  in
  (* The crashing member yields -1 and is discarded; the respawned member
     serves the very next invocation. *)
  check Alcotest.int "crash then fresh member" (-94) (W.sthread_join main h);
  check Alcotest.int "gate fault counted" 1 (Stats.get k.Kernel.stats "fault.cgate");
  check Alcotest.int "respawn counted" 1
    (Stats.get k.Kernel.stats "cgate.recycled.respawn")

(* ---------- fiber crash containment and deadlock diagnostics ---------- *)

let test_fiber_crash_contained_in_sthread () =
  let plan = Fault_plan.create ~seed:9 () in
  Fault_plan.disarm plan;
  let survived = ref false in
  Fiber.run ~faults:plan (fun () ->
      let _, app, main = mk_app () in
      W.boot app;
      let outcome =
        Supervisor.supervise main @@ fun () ->
        W.sthread_create main (W.sc_create ())
          (fun _ _ ->
            Fault_plan.rule plan ~site:"fiber.stall" ~prob:1.0 [ Fault_plan.Crash ];
            Fault_plan.arm plan;
            Fiber.yield ();
            99)
          0
      in
      Fault_plan.disarm plan;
      (match outcome with
      | Error reason -> check Alcotest.bool "names the site" true (contains reason "fiber.stall")
      | Ok _ -> Alcotest.fail "expected the worker to crash");
      (* The scheduler and this fiber are unharmed. *)
      Fiber.yield ();
      survived := true);
  check Alcotest.bool "main fiber survived" true !survived

let test_deadlock_names_blocked_fibers () =
  match
    Fiber.run (fun () ->
        Fiber.spawn (fun () -> Fiber.wait_until ~what:"cond_a" (fun () -> false));
        Fiber.wait_until ~what:"cond_b" (fun () -> false))
  with
  | () -> Alcotest.fail "expected deadlock"
  | exception Fiber.Deadlock msg ->
      check Alcotest.bool "names cond_a" true (contains msg "cond_a");
      check Alcotest.bool "names cond_b" true (contains msg "cond_b");
      check Alcotest.bool "names fibers" true (contains msg "fiber")

(* ---------- degraded answers ---------- *)

let test_pop3_setup_fault_degrades () =
  let plan = Fault_plan.create ~seed:3 () in
  Fault_plan.disarm plan;
  let k = Kernel.create ~costs:Cost_model.free ~faults:plan () in
  Wedge_sim.Trace.arm ~capacity:(1 lsl 12) k.Kernel.trace;
  Pop3_env.install k Pop3_env.default_users;
  let app = W.create_app k in
  W.boot app;
  let main = W.main_ctx app in
  let farewell = ref "" in
  let returned = ref false in
  Fiber.run (fun () ->
      let client_ep, server_ep = Chan.pair ~costs:Cost_model.free () in
      Fiber.spawn (fun () ->
          (* The very first frame allocation of per-connection setup fails:
             the monitor must degrade, not die. *)
          Fault_plan.rule plan ~site:"physmem.alloc" ~prob:1.0 [ Fault_plan.Enomem ];
          Fault_plan.arm plan;
          Pop3_wedge.serve_connection main server_ep;
          Fault_plan.disarm plan;
          returned := true);
      farewell := Bytes.to_string (Chan.read client_ep 128));
  check Alcotest.bool "serve_connection returned" true !returned;
  check Alcotest.bool "-ERR farewell sent" true (contains !farewell "-ERR");
  check Alcotest.int "pop3.degraded counted" 1 (Stats.get k.Kernel.stats "pop3.degraded");
  (* The fault hit the master's setup: no worker was stamped, so none
     faulted. *)
  check Alcotest.int "no worker stamped" 0 (Stats.get k.Kernel.stats "pool.stamp");
  check Alcotest.int "no compartment fault" 0 (Stats.get k.Kernel.stats "fault.compartment");
  check Alcotest.int "the setup fault counted" 1 (Stats.get k.Kernel.stats "fault.setup");
  check Alcotest.int "and traced" 1
    (Wedge_sim.Trace.For_testing.instants_named k.Kernel.trace ~name:"service.setup_fault")

(* ---------- chaos soak ---------- *)

type soak = {
  s_trace : string;
  s_injections : int;
  s_ok : int;
  s_failed : int;
  s_refused : int;
  s_final_ok : bool;
  s_degraded : int;
}

let run_soak ~seed ~n () =
  let plan = Fault_plan.create ~seed () in
  let chan_kinds =
    [ Fault_plan.Drop; Fault_plan.Truncate; Fault_plan.Reset; Fault_plan.Delay 50 ]
  in
  Fault_plan.rule plan ~site:"chan.read" ~prob:0.05 chan_kinds;
  Fault_plan.rule plan ~site:"chan.write" ~prob:0.05 chan_kinds;
  Fault_plan.rule plan ~site:"physmem.alloc" ~prob:0.05 [ Fault_plan.Enomem ];
  Fault_plan.disarm plan;
  let k = Kernel.create ~costs:Cost_model.free ~faults:plan () in
  let env = Env.install ~image_pages:80 k in
  let ok = ref 0 and failed = ref 0 and refused = ref 0 in
  let final_ok = ref false in
  Fiber.run (fun () ->
      let l = Chan.listener ~clock:k.Kernel.clock ~costs:Cost_model.free ~faults:plan () in
      Fiber.spawn (fun () ->
          let rec loop () =
            match Chan.accept l with
            | None -> ()
            | Some ep ->
                (* Every connection's fate — served, degraded, or torn
                   down — is contained inside serve_connection. *)
                Simple.serve_connection env ep;
                loop ()
          in
          loop ());
      let fetch i =
        match Chan.connect l with
        | exception Fault_plan.Injected _ -> incr refused
        | ep -> (
            let rng = Drbg.create ~seed:(1000 + i) in
            let r =
              try
                match
                  Client.get ~rng ~pinned:env.Env.priv.Rsa.pub ~path:"/index.html" ep
                with
                | r -> if body_of r <> None then `Ok else `Failed
              with
              | Fiber.Deadlock _ as e -> raise e
              | _ -> `Failed
            in
            match r with `Ok -> incr ok | `Failed -> incr failed)
      in
      Fault_plan.arm plan;
      for i = 1 to n do
        fetch i
      done;
      Fault_plan.disarm plan;
      (* The listener took n faulty connections and still accepts: one
         last clean fetch must succeed end to end. *)
      let ep = Chan.connect l in
      let rng = Drbg.create ~seed:31337 in
      final_ok :=
        body_of (Client.get ~rng ~pinned:env.Env.priv.Rsa.pub ~path:"/index.html" ep)
        = Some Env.index_body;
      Chan.shutdown l);
  {
    s_trace = Fault_plan.trace plan;
    s_injections = Fault_plan.injections plan;
    s_ok = !ok;
    s_failed = !failed;
    s_refused = !refused;
    s_final_ok = !final_ok;
    s_degraded = Stats.get k.Kernel.stats "httpd.degraded";
  }

let test_chaos_soak () =
  let n = 200 in
  let a = run_soak ~seed:77 ~n () in
  check Alcotest.int "every connection resolved" n (a.s_ok + a.s_failed + a.s_refused);
  check Alcotest.bool "faults actually injected" true (a.s_injections > 0);
  (* At 5% per-I/O-operation, most multi-round-trip TLS connections hit at
     least one fault; what matters is that clean ones still complete and
     faulty ones resolve definitively instead of wedging the server. *)
  check Alcotest.bool "clean connections still served" true (a.s_ok > 0);
  check Alcotest.bool "some connections degraded" true (a.s_failed > 0);
  check Alcotest.bool "listener survived the soak" true a.s_final_ok;
  check Alcotest.bool "degradations were counted" true (a.s_degraded >= 0)

let test_chaos_soak_replays_identically () =
  let a = run_soak ~seed:123 ~n:60 () in
  let b = run_soak ~seed:123 ~n:60 () in
  check Alcotest.string "byte-identical fault trace" a.s_trace b.s_trace;
  check Alcotest.bool "trace nonempty" true (String.length a.s_trace > 0);
  check Alcotest.int "identical outcomes" a.s_ok b.s_ok;
  check Alcotest.int "identical failures" a.s_failed b.s_failed;
  check Alcotest.int "identical degradations" a.s_degraded b.s_degraded

let () =
  Alcotest.run "fault"
    [
      ( "plan",
        [
          Alcotest.test_case "same seed same trace" `Quick test_same_seed_same_trace;
          Alcotest.test_case "disarmed plan inert" `Quick test_disarmed_plan_is_inert;
          Alcotest.test_case "zero-rate plan trace-neutral" `Quick
            test_zero_rate_plan_is_trace_neutral;
        ] );
      ( "frames",
        [
          Alcotest.test_case "exhaustion and recovery" `Quick
            test_frame_exhaustion_and_recovery;
          Alcotest.test_case "supervised enomem recovery" `Quick
            test_supervisor_recovers_from_injected_enomem;
        ] );
      ( "channels",
        [
          Alcotest.test_case "reset mid-request" `Quick test_channel_reset_mid_request;
          Alcotest.test_case "connect refused" `Quick
            test_connect_fault_refuses_connection;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "a faulted attempt charges nothing" `Quick
            test_faulted_attempt_charges_nothing;
          Alcotest.test_case "creation fault unwinds" `Quick test_creation_fault_unwinds;
        ] );
      ( "cgate",
        [
          Alcotest.test_case "recycled respawn" `Quick
            test_recycled_gate_fault_respawns;
        ] );
      ( "fibers",
        [
          Alcotest.test_case "crash contained" `Quick
            test_fiber_crash_contained_in_sthread;
          Alcotest.test_case "deadlock names fibers" `Quick
            test_deadlock_names_blocked_fibers;
        ] );
      ( "degraded",
        [
          Alcotest.test_case "pop3 setup fault" `Quick test_pop3_setup_fault_degrades;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "soak" `Quick test_chaos_soak;
          Alcotest.test_case "soak replay" `Quick test_chaos_soak_replays_identically;
        ] );
    ]
