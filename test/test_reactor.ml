(* The blocking model: park/unpark scheduler primitives, interest sets
   with level-triggered wakes, the reactor's timer wheel on the simulated
   clock, and the audit the invariant oracle runs against the parked
   table. *)

module Fiber = Wedge_sim.Fiber
module Clock = Wedge_sim.Clock
module Reactor = Wedge_sim.Reactor
module Interest = Wedge_sim.Fiber.Interest
module Metrics = Wedge_sim.Metrics

let check = Alcotest.check

(* A timer [ns] from the reactor's now. *)
let after r ~ns fire = Reactor.at r ~ns:(Clock.now (Reactor.clock r) + ns) fire

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let mk () =
  let clock = Clock.create () in
  (clock, Reactor.create ~clock ())

(* ---------- park / unpark (the primitive the reactor rides on) ---------- *)

let test_park_unpark () =
  let log = Buffer.create 16 in
  Fiber.run (fun () ->
      Fiber.spawn (fun () ->
          Buffer.add_string log "a";
          Fiber.park ~what:"test wake";
          Buffer.add_string log "c");
      Fiber.yield ();
      check Alcotest.int "one fiber parked" 1 (List.length (Fiber.For_testing.parked_ids ()));
      check Alcotest.bool "the spawned fiber is the parked one" true
        (Fiber.For_testing.parked_ids () = [ 1 ]);
      Buffer.add_string log "b";
      Fiber.unpark (List.hd (Fiber.For_testing.parked_ids ())));
  check Alcotest.string "parked fiber resumed after unpark" "abc"
    (Buffer.contents log);
  check Alcotest.int "parked table drained" 0 (List.length (Fiber.For_testing.parked_ids ()))

let test_parked_fiber_deadlock_names_it () =
  match
    Fiber.run (fun () -> Fiber.spawn (fun () -> Fiber.park ~what:"never woken"))
  with
  | () -> Alcotest.fail "expected deadlock"
  | exception Fiber.Deadlock msg ->
      check Alcotest.bool "message names the parked wait" true
        (contains msg "never woken")

let test_cancel_unparks_victim () =
  let outcome = ref "" in
  Fiber.run (fun () ->
      Fiber.spawn (fun () ->
          try
            Fiber.park ~what:"cancel target";
            outcome := "resumed"
          with Fiber.Cancelled r -> outcome := "cancelled:" ^ r);
      Fiber.yield ();
      Fiber.cancel ~reason:"test cut" (List.hd (Fiber.For_testing.parked_ids ())));
  check Alcotest.string "parked victim died of the cancellation"
    "cancelled:test cut" !outcome

(* ---------- interest sets ---------- *)

let test_wait_returns_when_already_ready () =
  let _, r = mk () in
  let h = Interest.create ~name:"t" in
  Fiber.run (fun () -> Interest.wait h ~what:"ready now" ~ready:(fun () -> true));
  check Alcotest.int "no park for an already-ready wait" 0
    (Reactor.stats r).Reactor.parks

let test_signal_wakes_waiter () =
  let h = Interest.create ~name:"t" in
  let flag = ref false in
  let woke = ref false in
  Fiber.run (fun () ->
      Fiber.spawn (fun () ->
          Interest.wait h ~what:"flag" ~ready:(fun () -> !flag);
          woke := true);
      Fiber.yield ();
      check Alcotest.bool "waiter parked" false !woke;
      flag := true;
      Interest.signal h);
  check Alcotest.bool "signal delivered the wake" true !woke

let test_spurious_signal_reparks () =
  let _, r = mk () in
  let h = Interest.create ~name:"t" in
  let flag = ref false in
  let woke = ref false in
  Fiber.run (fun () ->
      Fiber.spawn (fun () ->
          Interest.wait h ~what:"flag" ~ready:(fun () -> !flag);
          woke := true);
      Fiber.yield ();
      (* Not ready: the wake is spurious and the waiter must re-park. *)
      Interest.signal h;
      Fiber.yield ();
      check Alcotest.bool "level-triggered: re-parked on spurious wake" false !woke;
      check Alcotest.int "still registered" 1 (Reactor.stats r).Reactor.parked;
      flag := true;
      Interest.signal h);
  check Alcotest.bool "real signal got through" true !woke;
  check Alcotest.int "two parks: initial + re-park" 2 (Reactor.stats r).Reactor.parks

let test_signal_wakes_batch_in_fiber_order () =
  let _, r = mk () in
  let h = Interest.create ~name:"t" in
  let flag = ref false in
  let order = ref [] in
  Fiber.run (fun () ->
      for i = 1 to 3 do
        Fiber.spawn (fun () ->
            Interest.wait h ~what:"flag" ~ready:(fun () -> !flag);
            order := i :: !order)
      done;
      Fiber.yield ();
      flag := true;
      Interest.signal h);
  check (Alcotest.list Alcotest.int) "one batch, fiber-id order" [ 1; 2; 3 ]
    (List.rev !order);
  let s = Reactor.stats r in
  check Alcotest.int "one signal batch" 1 s.Reactor.signals;
  check Alcotest.int "three wakeups" 3 s.Reactor.wakeups

let test_kill_wakes_and_poisons () =
  let _, r = mk () in
  let h = Interest.create ~name:"t" in
  let woke = ref false in
  Fiber.run (fun () ->
      Fiber.spawn (fun () ->
          Interest.wait h ~what:"doomed" ~ready:(fun () -> false);
          woke := true);
      Fiber.yield ();
      Interest.kill h;
      Fiber.yield ();
      (* Dead handle: wait returns immediately, registering nothing. *)
      Interest.wait h ~what:"post-mortem" ~ready:(fun () -> false));
  check Alcotest.bool "killed handle released its waiter" true !woke;
  check Alcotest.int "no ghost registrations" 0 (Reactor.stats r).Reactor.parked

let test_cancel_removes_registration () =
  let h = Interest.create ~name:"t" in
  let outcome = ref "" in
  Fiber.run (fun () ->
      Fiber.spawn (fun () ->
          try Interest.wait h ~what:"cut target" ~ready:(fun () -> false)
          with Fiber.Cancelled _ -> outcome := "cancelled");
      Fiber.yield ();
      Fiber.cancel (List.hd (Fiber.For_testing.parked_ids ()));
      Fiber.yield ();
      check (Alcotest.option Alcotest.string) "no ghost waiter left behind" None
        (Fiber.audit ()));
  check Alcotest.string "cancellation propagated" "cancelled" !outcome

(* ---------- timers ---------- *)

let test_timers_fire_in_deadline_order () =
  let clock, r = mk () in
  let log = ref [] in
  ignore (Reactor.at r ~ns:200 (fun () -> log := "b" :: !log));
  ignore (Reactor.at r ~ns:100 (fun () -> log := "a" :: !log));
  ignore (Reactor.at r ~ns:300 (fun () -> log := "c" :: !log));
  check Alcotest.int "armed" 3 (Reactor.stats r).Reactor.timers;
  Clock.charge clock 150;
  Reactor.hook r ();
  check (Alcotest.list Alcotest.string) "only the due timer fired" [ "a" ]
    (List.rev !log);
  Clock.charge clock 200;
  Reactor.hook r ();
  check (Alcotest.list Alcotest.string) "rest fired in deadline order"
    [ "a"; "b"; "c" ] (List.rev !log);
  check Alcotest.int "wheel empty" 0 (Reactor.stats r).Reactor.timers

let test_cancel_timer () =
  let clock, r = mk () in
  let fired = ref false in
  let id = after r ~ns:100 (fun () -> fired := true) in
  Reactor.cancel_timer r id;
  Clock.charge clock 500;
  Reactor.hook r ();
  check Alcotest.bool "cancelled timer never fires" false !fired;
  check Alcotest.int "wheel empty after sweep" 0 (Reactor.stats r).Reactor.timers

let test_idle_advances_clock_to_next_timer () =
  let clock, r = mk () in
  let h = Interest.create ~name:"t" in
  let flag = ref false in
  let woke_at = ref (-1) in
  ignore
    (after r ~ns:1_000 (fun () ->
         flag := true;
         Interest.signal h));
  Fiber.run
    ~on_switch:(Reactor.hook r)
    ~on_idle:(Reactor.idle r)
    (fun () ->
      Interest.wait h ~what:"timer" ~ready:(fun () -> !flag);
      woke_at := Clock.now clock);
  check Alcotest.int "clock jumped straight to the deadline" 1_000 !woke_at;
  let s = Reactor.stats r in
  check Alcotest.bool "idle advance recorded" true (s.Reactor.idle_advances >= 1);
  check Alcotest.int "timer fired once" 1 s.Reactor.timer_fires

let test_idle_without_timers_concedes_deadlock () =
  let _, r = mk () in
  let h = Interest.create ~name:"t" in
  match
    Fiber.run ~on_idle:(Reactor.idle r) (fun () ->
        Fiber.spawn (fun () ->
            Interest.wait h ~what:"nothing will signal" ~ready:(fun () -> false)))
  with
  | () -> Alcotest.fail "expected deadlock"
  | exception Fiber.Deadlock msg ->
      check Alcotest.bool "deadlock names the reactor wait" true
        (contains msg "nothing will signal")

let test_timer_rearm_from_callback () =
  let clock, r = mk () in
  let fires = ref 0 in
  let rec arm () =
    ignore
      (after r ~ns:100 (fun () ->
           incr fires;
           if !fires < 3 then arm ()))
  in
  arm ();
  for _ = 1 to 5 do
    Clock.charge clock 100;
    Reactor.hook r ()
  done;
  check Alcotest.int "fire-and-re-arm chain ran three times" 3 !fires

(* ---------- audit ---------- *)

let test_self_check_clean_while_parked () =
  let h = Interest.create ~name:"t" in
  let flag = ref false in
  Fiber.run (fun () ->
      Fiber.spawn (fun () -> Interest.wait h ~what:"flag" ~ready:(fun () -> !flag));
      Fiber.yield ();
      check (Alcotest.option Alcotest.string) "waiter-not-ready is consistent" None
        (Fiber.audit ());
      flag := true;
      (* Readiness now holds but no signal was sent: that is precisely a
         lost wakeup, and the audit must say so. *)
      (match Fiber.audit () with
      | Some msg ->
          check Alcotest.bool "audit names a lost wakeup" true
            (contains msg "lost wakeup")
      | None -> Alcotest.fail "self_check missed a lost wakeup");
      Interest.signal h)

(* ---------- multi-reactor (sharded) scheduling ---------- *)

(* Each shard's reactor runs on its own clock, so the multi-idle must
   pick the reactor whose earliest timer is the smallest RELATIVE delay
   from its own now — absolute instants are not comparable across
   clocks — and advance only that clock. *)
let test_idle_multi_picks_smallest_relative_delay () =
  let c1, r1 = mk () in
  let c2, r2 = mk () in
  Clock.charge c1 1_000;
  let f1 = ref false and f2 = ref false in
  ignore (after r1 ~ns:500 (fun () -> f1 := true));
  ignore (after r2 ~ns:200 (fun () -> f2 := true));
  check (Alcotest.option Alcotest.int) "r1 deadline absolute on its clock"
    (Some 1_500) (Reactor.For_testing.next_deadline r1);
  check (Alcotest.option Alcotest.int) "r2 deadline absolute on its clock"
    (Some 200) (Reactor.For_testing.next_deadline r2);
  let idle = Reactor.idle_multi [ r1; r2 ] in
  check Alcotest.bool "first idle makes progress" true (idle ());
  check Alcotest.bool "nearer (relative) timer fired" true !f2;
  check Alcotest.bool "farther timer untouched" false !f1;
  check Alcotest.int "only r2's clock advanced" 200 (Clock.now c2);
  check Alcotest.int "r1's clock unmoved" 1_000 (Clock.now c1);
  check Alcotest.bool "second idle makes progress" true (idle ());
  check Alcotest.bool "r1's timer fired" true !f1;
  check Alcotest.int "r1's clock at its deadline" 1_500 (Clock.now c1);
  check Alcotest.bool "no timers left: concede" false (idle ())

(* One registry covers every interest set: a fiber parked on the second
   of two sets is audited exactly like one parked on the first. *)
let test_audit_spans_every_set () =
  let h1 = Interest.create ~name:"t1" in
  let h2 = Interest.create ~name:"t2" in
  let flag = ref false in
  Fiber.run (fun () ->
      Fiber.spawn (fun () -> Interest.wait h1 ~what:"never" ~ready:(fun () -> false));
      Fiber.spawn (fun () -> Interest.wait h2 ~what:"flag" ~ready:(fun () -> !flag));
      Fiber.yield ();
      check (Alcotest.option Alcotest.string) "clean across both sets" None (Fiber.audit ());
      flag := true;
      (match Fiber.audit () with
      | Some msg ->
          check Alcotest.bool "names the lost wakeup on the second set" true
            (contains msg "lost wakeup — t2")
      | None -> Alcotest.fail "audit missed a lost wakeup on the second set");
      Interest.signal h2;
      Interest.kill h1)

let () =
  Alcotest.run "reactor"
    [
      ( "park",
        [
          Alcotest.test_case "park/unpark round trip" `Quick test_park_unpark;
          Alcotest.test_case "deadlock names parked fiber" `Quick
            test_parked_fiber_deadlock_names_it;
          Alcotest.test_case "cancel unparks victim" `Quick test_cancel_unparks_victim;
        ] );
      ( "interest sets",
        [
          Alcotest.test_case "already-ready skips parking" `Quick
            test_wait_returns_when_already_ready;
          Alcotest.test_case "signal wakes waiter" `Quick test_signal_wakes_waiter;
          Alcotest.test_case "spurious signal re-parks" `Quick
            test_spurious_signal_reparks;
          Alcotest.test_case "batch wake in fiber order" `Quick
            test_signal_wakes_batch_in_fiber_order;
          Alcotest.test_case "kill wakes and poisons" `Quick test_kill_wakes_and_poisons;
          Alcotest.test_case "cancel removes registration" `Quick
            test_cancel_removes_registration;
        ] );
      ( "timers",
        [
          Alcotest.test_case "deadline order" `Quick test_timers_fire_in_deadline_order;
          Alcotest.test_case "cancel_timer" `Quick test_cancel_timer;
          Alcotest.test_case "idle advances clock" `Quick
            test_idle_advances_clock_to_next_timer;
          Alcotest.test_case "idle concedes without timers" `Quick
            test_idle_without_timers_concedes_deadlock;
          Alcotest.test_case "re-arm from callback" `Quick test_timer_rearm_from_callback;
        ] );
      ( "audit",
        [
          Alcotest.test_case "self_check" `Quick test_self_check_clean_while_parked;
        ] );
      ( "multi",
        [
          Alcotest.test_case "idle_multi relative deadlines" `Quick
            test_idle_multi_picks_smallest_relative_delay;
          Alcotest.test_case "audit spans every interest set" `Quick
            test_audit_spans_every_set;
        ] );
    ]
