(* Tests for the simulation substrate: the effects-based fiber scheduler,
   the clock, stats counters and instrumentation plumbing. *)

module Fiber = Wedge_sim.Fiber
module Clock = Wedge_sim.Clock
module Stats = Wedge_sim.Stats
module Instr = Wedge_sim.Instr
module Cost_model = Wedge_sim.Cost_model
module Reactor = Wedge_sim.Reactor
module Chan = Wedge_net.Chan

let check = Alcotest.check

(* ---------- fibers ---------- *)

let test_fiber_runs_to_completion () =
  let log = ref [] in
  Fiber.run (fun () -> log := "main" :: !log);
  check (Alcotest.list Alcotest.string) "ran" [ "main" ] !log

let test_fiber_spawn_ordering () =
  let log = Buffer.create 32 in
  Fiber.run (fun () ->
      Buffer.add_string log "a";
      Fiber.spawn (fun () -> Buffer.add_string log "c");
      Buffer.add_string log "b";
      Fiber.yield ();
      Buffer.add_string log "d");
  check Alcotest.string "cooperative order" "abcd" (Buffer.contents log)

let test_fiber_nested_spawn () =
  let count = ref 0 in
  Fiber.run (fun () ->
      Fiber.spawn (fun () ->
          incr count;
          Fiber.spawn (fun () -> incr count));
      Fiber.spawn (fun () -> incr count));
  check Alcotest.int "all descendants ran" 3 !count

let test_fiber_wait_until () =
  let flag = ref false in
  let seen = ref false in
  Fiber.run (fun () ->
      Fiber.spawn (fun () ->
          Fiber.wait_until ~what:"flag" (fun () -> !flag);
          seen := true);
      Fiber.yield ();
      flag := true);
  check Alcotest.bool "woke up" true !seen

let test_fiber_deadlock_detection () =
  match Fiber.run (fun () -> Fiber.wait_until ~what:"never" (fun () -> false)) with
  | () -> Alcotest.fail "expected deadlock"
  | exception Fiber.Deadlock what ->
      (* The message now also names the blocked fibers; the awaited
         condition must still appear. *)
      let contains hay needle =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      check Alcotest.bool "names the condition" true (contains what "never")

let test_fiber_exception_propagates () =
  match Fiber.run (fun () -> failwith "boom") with
  | () -> Alcotest.fail "expected exception"
  | exception Failure m -> check Alcotest.string "propagated" "boom" m

let test_fiber_spawn_outside_run_rejected () =
  match Fiber.spawn (fun () -> ()) with
  | () -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ()

let test_fiber_yield_outside_run_is_noop () =
  Fiber.yield ();
  check Alcotest.bool "no crash" true true

let test_fiber_nested_run_rejected () =
  match Fiber.run (fun () -> Fiber.run (fun () -> ())) with
  | () -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ()

let test_fiber_usable_after_crash () =
  (* A failed run must not poison the scheduler state. *)
  (try Fiber.run (fun () -> failwith "x") with Failure _ -> ());
  let ran = ref false in
  Fiber.run (fun () -> ran := true);
  check Alcotest.bool "second run works" true !ran

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_fiber_deadlock_message_lists_waiters () =
  (* The message must name every blocked fiber with what it awaits, so a
     wedged exploration run is diagnosable from the exception alone. *)
  match
    Fiber.run (fun () ->
        Fiber.spawn (fun () -> Fiber.wait_until ~what:"red flag" (fun () -> false));
        Fiber.spawn (fun () -> Fiber.wait_until ~what:"green flag" (fun () -> false)))
  with
  | () -> Alcotest.fail "expected deadlock"
  | exception Fiber.Deadlock what ->
      check Alcotest.bool "lists first waiter" true (contains what "red flag");
      check Alcotest.bool "lists second waiter" true (contains what "green flag");
      check Alcotest.bool "names a fiber id" true (contains what "fiber")

(* The exact stall rule: two fibers each reading the other's silent
   channel are deadlocked the moment both have parked.  The verdict names
   both, within a handful of scheduler steps. *)
let test_fiber_deadlock_is_exact () =
  let steps = ref 0 in
  match
    Fiber.run
      ~on_switch:(fun () -> incr steps)
      (fun () ->
        let mine, theirs = Chan.pair () and peer_out, peer_in = Chan.pair () in
        Fiber.spawn (fun () ->
            ignore peer_out;
            ignore (Chan.read theirs 1));
        ignore mine;
        ignore (Chan.read peer_in 1))
  with
  | () -> Alcotest.fail "expected deadlock"
  | exception Fiber.Deadlock what ->
      check Alcotest.bool "names fiber 0" true
        (contains what "fiber 0 awaiting channel data");
      check Alcotest.bool "names fiber 1" true
        (contains what "fiber 1 awaiting channel data");
      check Alcotest.bool "within 20 scheduler steps" true (!steps <= 20)

(* A stalled system with an armed timer is asleep, not dead: the
   scheduler sleeps to the timer, and a poller whose condition only that
   timer can make true completes. *)
let test_fiber_wait_until_woken_by_timer () =
  let clock = Clock.create () in
  let r = Reactor.create ~clock () in
  let flag = ref false in
  ignore (Reactor.at r ~ns:(Clock.now (Reactor.clock r) + 5_000) (fun () -> flag := true));
  Fiber.run ~on_switch:(Reactor.hook r) ~on_idle:(Reactor.idle r) (fun () ->
      Fiber.wait_until ~what:"timer flag" (fun () -> !flag));
  check Alcotest.bool "condition met" true !flag;
  check Alcotest.int "clock slept to the timer" 5_000 (Clock.now clock)

(* A poller waits parked, off the pool: under strict priority, a
   top-priority poller waiting on a lower-priority fiber cannot livelock
   (some seeds below rank the poller first). *)
let test_pct_skips_failed_pollers () =
  List.iter
    (fun seed ->
      let steps = ref 0 and flag = ref false in
      Fiber.run
        ~policy:(Fiber.Pct { seed; change_prob = 0.0 })
        ~on_switch:(fun () ->
          incr steps;
          if !steps > 1_000 then failwith "strict priority livelocked on a poller")
        (fun () ->
          Fiber.spawn (fun () ->
              Fiber.yield ();
              flag := true);
          Fiber.wait_until ~what:"flag" (fun () -> !flag));
      check Alcotest.bool "poller saw the flag" true !flag)
    [ 1; 2; 3; 4; 5; 6 ]

(* A parked poller takes no scheduling steps while its condition is
   false: each of 100 pollers steps once to park and once to return,
   whatever the policy, beside the setter's 11 steps. *)
let test_pollers_take_no_steps () =
  List.iter
    (fun (label, policy) ->
      let steps = ref 0 and flag = ref false and returned = ref 0 in
      Fiber.run ~policy
        ~on_switch:(fun () -> incr steps)
        (fun () ->
          for _ = 1 to 100 do
            Fiber.spawn (fun () ->
                Fiber.wait_until ~what:"flag" (fun () -> !flag);
                incr returned)
          done;
          Fiber.spawn (fun () ->
              for _ = 1 to 10 do
                Fiber.yield ()
              done;
              flag := true));
      check Alcotest.int (label ^ ": every poller returned") 100 !returned;
      if !steps > 250 then
        Alcotest.failf "%s: %d scheduling steps, at most 250" label !steps)
    [
      ("round-robin", Fiber.Round_robin);
      ("random", Fiber.Random 1);
      ("pct", Fiber.Pct { seed = 1; change_prob = 0.1 });
    ]

(* The scheduler wakes a poller when its condition holds, but fibers
   that run before the poller may make it false again: the woken poller
   must re-check and park again, so it returns only on a [true]. *)
let test_woken_poller_rechecks () =
  let flag = ref false and seen = ref None in
  Fiber.run (fun () ->
      Fiber.spawn (fun () ->
          Fiber.wait_until ~what:"flag" (fun () -> !flag);
          seen := Some !flag);
      Fiber.yield ();
      (* The poller is parked.  The end of this pass finds the flag set
         and wakes it behind this fiber, which clears the flag first. *)
      flag := true;
      Fiber.yield ();
      flag := false;
      Fiber.yield ();
      flag := true);
  check (Alcotest.option Alcotest.bool) "poller returned having seen true" (Some true) !seen

(* The audit run from [on_switch] accepts a parked poller, also in the
   window where its condition holds but the pass that will wake it has
   not ended. *)
let test_parked_poller_passes_audit () =
  let flag = ref false and audited_parked = ref 0 and verdict = ref None in
  Fiber.run
    ~on_switch:(fun () ->
      if Fiber.For_testing.parked_ids () <> [] then incr audited_parked;
      if !verdict = None then verdict := Fiber.audit ())
    (fun () ->
      Fiber.spawn (fun () -> Fiber.wait_until ~what:"flag" (fun () -> !flag));
      Fiber.spawn (fun () ->
          for _ = 1 to 6 do
            Fiber.yield ()
          done);
      for _ = 1 to 3 do
        Fiber.yield ()
      done;
      flag := true;
      Fiber.yield ());
  check Alcotest.bool "the audit ran with the poller parked" true (!audited_parked > 0);
  check (Alcotest.option Alcotest.string) "audit clean" None !verdict

let test_fiber_nested_spawn_ordering_policies () =
  (* Nested spawns must run exactly once under every policy; round-robin
     additionally pins the historical FIFO order. *)
  let trace policy =
    let log = Buffer.create 32 in
    Fiber.run ~policy (fun () ->
        Fiber.spawn (fun () ->
            Buffer.add_string log "a";
            Fiber.spawn (fun () -> Buffer.add_string log "c");
            Fiber.yield ();
            Buffer.add_string log "d");
        Fiber.spawn (fun () -> Buffer.add_string log "b"));
    Buffer.contents log
  in
  check Alcotest.string "round-robin FIFO" "abcd" (trace Fiber.Round_robin);
  List.iter
    (fun policy ->
      let t = trace policy in
      check Alcotest.int "all four ran" 4 (String.length t);
      check Alcotest.string "same multiset of events" "abcd"
        (String.init 4
           (let sorted = List.sort compare [ t.[0]; t.[1]; t.[2]; t.[3] ] in
            List.nth sorted));
      (* Replayable: the same policy gives the same interleaving. *)
      check Alcotest.string "deterministic in seed" t (trace policy))
    [ Fiber.Random 42; Fiber.Pct { seed = 42; change_prob = 0.1 } ]

let test_fiber_last_decisions_replay () =
  let order policy =
    let log = Buffer.create 8 in
    Fiber.run ~policy (fun () ->
        Fiber.spawn (fun () -> Buffer.add_string log "x");
        Fiber.spawn (fun () -> Buffer.add_string log "y");
        Fiber.yield ());
    Buffer.contents log
  in
  let under_random = order (Fiber.Random 9) in
  let decisions = Fiber.last_decisions () in
  check Alcotest.bool "decisions recorded" true (Array.length decisions > 0);
  check Alcotest.string "replaying the trace reproduces the schedule"
    under_random
    (order (Fiber.Replay decisions));
  (* Decisions survive exceptional termination too. *)
  (match
     Fiber.run ~policy:(Fiber.Random 9) (fun () ->
         Fiber.spawn (fun () -> ());
         Fiber.yield ();
         failwith "boom")
   with
  | () -> Alcotest.fail "expected failure"
  | exception Failure _ ->
      check Alcotest.bool "decisions valid after a crash" true
        (Array.length (Fiber.last_decisions ()) > 0));
  check Alcotest.int "round-robin records no decisions" 0
    (Fiber.run Fiber.yield;
     Array.length (Fiber.last_decisions ()))

let test_fiber_yield_fault_injection () =
  (* An armed plan with a certain crash rule at "fiber.stall" kills the
     yielding fiber; other fibers keep running and the run itself
     completes. *)
  let plan = Wedge_fault.Fault_plan.create ~seed:3 () in
  Wedge_fault.Fault_plan.rule plan ~site:"fiber.stall" ~prob:1.0
    [ Wedge_fault.Fault_plan.Reset ];
  let survivor = ref false and victim_died = ref false in
  Fiber.run ~faults:plan (fun () ->
      Fiber.spawn (fun () ->
          match Fiber.yield () with
          | () -> ()
          | exception Wedge_fault.Fault_plan.Injected _ -> victim_died := true);
      survivor := true);
  check Alcotest.bool "yielding fiber saw the injection" true !victim_died;
  check Alcotest.bool "non-yielding fiber unaffected" true !survivor;
  (* Disarmed: yields are clean again. *)
  Wedge_fault.Fault_plan.disarm plan;
  let clean = ref false in
  Fiber.run ~faults:plan (fun () ->
      Fiber.yield ();
      clean := true);
  check Alcotest.bool "disarmed yield clean" true !clean

(* ---------- clock ---------- *)

let test_clock_accumulates () =
  let c = Clock.create () in
  Clock.charge c 5;
  Clock.charge c 7;
  check Alcotest.int "sum" 12 (Clock.now c)

(* ---------- stats ---------- *)

let test_stats () =
  let s = Stats.create () in
  Stats.bump s "a";
  Stats.bump s "a";
  Stats.add s "b" 5;
  check Alcotest.int "a" 2 (Stats.get s "a");
  check Alcotest.int "b" 5 (Stats.get s "b");
  check Alcotest.int "missing" 0 (Stats.get s "zzz");
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "sorted" [ ("a", 2); ("b", 5) ] (Stats.to_list s)

(* ---------- instr ---------- *)

let test_instr_null_is_identified () =
  check Alcotest.bool "null" true (Instr.is_null Instr.null);
  let other = { Instr.null with Instr.on_exit = (fun () -> ()) } in
  check Alcotest.bool "non-null" false (Instr.is_null other)

let test_instr_scoped_balances_on_exception () =
  let depth = ref 0 in
  let instr =
    {
      Instr.null with
      Instr.on_enter = (fun _ _ _ -> incr depth);
      on_exit = (fun () -> decr depth);
    }
  in
  (try Instr.scoped instr ~name:"f" ~file:"x" ~line:1 (fun () -> failwith "boom")
   with Failure _ -> ());
  check Alcotest.int "balanced after raise" 0 !depth;
  let v = Instr.scoped instr ~name:"g" ~file:"x" ~line:1 (fun () -> 9) in
  check Alcotest.int "returns value" 9 v;
  check Alcotest.int "balanced" 0 !depth

let test_cost_model_free_is_zero () =
  let open Cost_model in
  check Alcotest.int "trap" 0 free.syscall_trap;
  check Alcotest.int "rsa" 0 free.rsa_private_op;
  check Alcotest.bool "default nonzero" true (default.syscall_trap > 0)

let () =
  Alcotest.run "wedge_sim"
    [
      ( "fiber",
        [
          Alcotest.test_case "runs to completion" `Quick test_fiber_runs_to_completion;
          Alcotest.test_case "spawn ordering" `Quick test_fiber_spawn_ordering;
          Alcotest.test_case "nested spawn" `Quick test_fiber_nested_spawn;
          Alcotest.test_case "wait_until" `Quick test_fiber_wait_until;
          Alcotest.test_case "deadlock detection" `Quick test_fiber_deadlock_detection;
          Alcotest.test_case "exception propagates" `Quick test_fiber_exception_propagates;
          Alcotest.test_case "spawn outside run" `Quick test_fiber_spawn_outside_run_rejected;
          Alcotest.test_case "yield outside run" `Quick test_fiber_yield_outside_run_is_noop;
          Alcotest.test_case "nested run rejected" `Quick test_fiber_nested_run_rejected;
          Alcotest.test_case "usable after crash" `Quick test_fiber_usable_after_crash;
          Alcotest.test_case "deadlock message lists waiters" `Quick
            test_fiber_deadlock_message_lists_waiters;
          Alcotest.test_case "deadlock is exact" `Quick test_fiber_deadlock_is_exact;
          Alcotest.test_case "wait_until woken by a timer" `Quick
            test_fiber_wait_until_woken_by_timer;
          Alcotest.test_case "pct skips failed pollers" `Quick test_pct_skips_failed_pollers;
          Alcotest.test_case "pollers take no steps" `Quick test_pollers_take_no_steps;
          Alcotest.test_case "woken poller re-checks" `Quick test_woken_poller_rechecks;
          Alcotest.test_case "parked poller passes the audit" `Quick
            test_parked_poller_passes_audit;
          Alcotest.test_case "nested spawn ordering per policy" `Quick
            test_fiber_nested_spawn_ordering_policies;
          Alcotest.test_case "last_decisions replay" `Quick test_fiber_last_decisions_replay;
          Alcotest.test_case "yield fault injection" `Quick test_fiber_yield_fault_injection;
        ] );
      ( "clock",
        [
          Alcotest.test_case "accumulates" `Quick test_clock_accumulates;
        ] );
      ("stats", [ Alcotest.test_case "counters" `Quick test_stats ]);
      ( "instr",
        [
          Alcotest.test_case "null identified" `Quick test_instr_null_is_identified;
          Alcotest.test_case "scoped balances" `Quick test_instr_scoped_balances_on_exception;
          Alcotest.test_case "cost models" `Quick test_cost_model_free_is_zero;
        ] );
    ]
