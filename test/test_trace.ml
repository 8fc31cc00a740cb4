(* Observability-layer tests: the clock-stamped trace ring (determinism,
   overflow, the single-branch disabled path allocating nothing), the
   Chrome-JSON exporter + schema validator, and the metrics registry
   subsuming every scattered counter without changing its value. *)

module Clock = Wedge_sim.Clock
module Fiber = Wedge_sim.Fiber
module Trace = Wedge_sim.Trace
module Metrics = Wedge_sim.Metrics
module Stats = Wedge_sim.Stats
module Cost_model = Wedge_sim.Cost_model
module Kernel = Wedge_kernel.Kernel
module Chan = Wedge_net.Chan
module Guard = Wedge_net.Guard
module W = Wedge_core.Wedge

let check = Alcotest.check

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ---------- recording + export ---------- *)

let test_export_shape () =
  let clock = Clock.create () in
  let t = Trace.create ~clock () in
  Trace.arm t;
  Trace.span_begin t ~name:"work" ~pid:3;
  Clock.charge clock 1_500;
  Trace.instant t ~name:"tick" ~pid:3;
  Clock.charge clock 500;
  Trace.count t ~name:"bytes" ~pid:3 ~value:42;
  Trace.span_end t ~name:"work" ~pid:3;
  check Alcotest.int "four events" 4 (Trace.recorded t);
  let json = Trace.to_chrome_json t in
  (match Trace.validate_chrome_json json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "export rejected by validator: %s" e);
  check Alcotest.bool "span begin" true (contains json {|"name":"work","cat":"wedge","ph":"B"|});
  check Alcotest.bool "instant at 1.5us" true (contains json {|"ph":"i","ts":1.500|});
  check Alcotest.bool "counter value" true (contains json {|"args":{"value":42}|});
  check Alcotest.bool "pid attributed" true (contains json {|"pid":3|})

let test_ring_overflow_keeps_newest () =
  let clock = Clock.create () in
  let t = Trace.create ~capacity:8 ~clock () in
  Trace.arm t;
  let names = Array.init 20 (fun i -> Printf.sprintf "e%02d" i) in
  Array.iter
    (fun n ->
      Trace.instant t ~name:n ~pid:1;
      Clock.charge clock 100)
    names;
  check Alcotest.int "ring holds capacity" 8 (Trace.recorded t);
  check Alcotest.int "older events dropped" 12 (Trace.dropped t);
  let json = Trace.to_chrome_json t in
  (match Trace.validate_chrome_json json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "overflowed export invalid: %s" e);
  check Alcotest.bool "oldest surviving event present" true (contains json "e12");
  check Alcotest.bool "newest event present" true (contains json "e19");
  check Alcotest.bool "overwritten event gone" false (contains json "e11");
  check Alcotest.bool "drop count exported" true (contains json {|"droppedEvents":12|});
  (* Chronological order across the wrap point. *)
  let p12 = ref 0 and p19 = ref 0 in
  String.iteri
    (fun i c ->
      if c = 'e' && i + 2 < String.length json then begin
        if String.sub json i 3 = "e12" then p12 := i;
        if String.sub json i 3 = "e19" then p19 := i
      end)
    json;
  check Alcotest.bool "wrapped export stays chronological" true (!p12 < !p19)

let test_disabled_is_free () =
  let clock = Clock.create () in
  let t = Trace.create ~clock () in
  check Alcotest.bool "created disabled" false (Trace.enabled t);
  let before = Gc.minor_words () in
  for i = 1 to 1_000 do
    Trace.instant t ~name:"x" ~pid:1;
    Trace.count t ~name:"y" ~pid:1 ~value:i;
    Trace.span_begin t ~name:"z" ~pid:1;
    Trace.span_end t ~name:"z" ~pid:1
  done;
  let words = Gc.minor_words () -. before in
  (* 4000 disabled recording calls: anything per-call would show up as
     thousands of words; allow a little slack for the Gc probe itself. *)
  check Alcotest.bool "disabled path allocates nothing" true (words < 100.0);
  check Alcotest.int "nothing recorded" 0 (Trace.recorded t);
  (* The null trace behaves the same and refuses to arm. *)
  Trace.instant Trace.null ~name:"x" ~pid:1;
  check Alcotest.int "null records nothing" 0 (Trace.recorded Trace.null);
  match Trace.arm Trace.null with
  | () -> Alcotest.fail "armed the shared null trace"
  | exception Invalid_argument _ -> ()

let test_arm_disarm_clear () =
  let clock = Clock.create () in
  let t = Trace.create ~clock () in
  Trace.arm t;
  Trace.instant t ~name:"a" ~pid:1;
  Trace.disarm t;
  Trace.instant t ~name:"b" ~pid:1;
  check Alcotest.int "disarmed stops recording" 1 (Trace.recorded t);
  check Alcotest.bool "events kept for export" true
    (contains (Trace.to_chrome_json t) {|"name":"a"|});
  Trace.arm t;
  check Alcotest.int "re-arm clears" 0 (Trace.recorded t);
  Trace.instant t ~name:"c" ~pid:1;
  Trace.clear t;
  check Alcotest.int "clear drops events" 0 (Trace.recorded t)

(* ---------- validator ---------- *)

let test_validator_rejects_garbage () =
  let bad s =
    match Trace.validate_chrome_json s with
    | Ok () -> Alcotest.failf "validator accepted %S" s
    | Error _ -> ()
  in
  bad "";
  bad "not json";
  bad "{";
  bad "[]";
  bad "{}";
  bad {|{"traceEvents":3}|};
  bad {|{"traceEvents":[3]}|};
  bad {|{"traceEvents":[{"ph":"i","ts":0,"pid":1,"tid":1}]}|};
  bad {|{"traceEvents":[{"name":7,"ph":"i","ts":0,"pid":1,"tid":1}]}|};
  bad {|{"traceEvents":[{"name":"x","ph":"i","ts":"0","pid":1,"tid":1}]}|};
  bad {|{"traceEvents":[{"name":"x","ph":"i","ts":0,"pid":1,"tid":1}]} trailing|};
  match Trace.validate_chrome_json {|{"traceEvents":[]}|} with
  | Ok () -> ()
  | Error e -> Alcotest.failf "minimal document rejected: %s" e

(* ---------- engine instrumentation + determinism ---------- *)

(* A small partitioned workload: tag + sthread + syscalls, with realistic
   clock costs so timestamps are nonzero and ordering matters. *)
let run_workload () =
  let k = Kernel.create ~costs:Cost_model.default () in
  Trace.arm k.Kernel.trace;
  let app = W.create_app k in
  W.boot app;
  let main = W.main_ctx app in
  Fiber.run (fun () ->
      let tag = W.tag_new ~name:"data" main in
      let p = W.smalloc main 64 tag in
      W.write_string main p "payload";
      let sc = W.sc_create () in
      W.sc_mem_add sc tag Wedge_kernel.Prot.R;
      let h =
        W.sthread_create main sc
          (fun ctx _ -> String.length (W.read_string ctx p 7))
          0
      in
      ignore (W.sthread_join main h));
  (k, Trace.to_chrome_json k.Kernel.trace)

let test_engine_spans_attributed () =
  let _k, json = run_workload () in
  (match Trace.validate_chrome_json json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "engine trace invalid: %s" e);
  check Alcotest.bool "sthread compartment span" true
    (contains json {|"name":"sthread","cat":"wedge","ph":"B"|});
  check Alcotest.bool "sthread create instant" true (contains json {|"name":"sthread.create"|});
  check Alcotest.bool "join instant" true (contains json {|"name":"sthread.join"|});
  check Alcotest.bool "syscall instants" true (contains json {|"name":"sys.|})

let test_export_deterministic_across_runs () =
  let _, a = run_workload () in
  let _, b = run_workload () in
  check Alcotest.bool "trace nonempty" true (String.length a > 200);
  check Alcotest.string "byte-identical across seeded runs" a b

(* ---------- metrics registry ---------- *)

let test_metrics_merges_and_sorts () =
  let m = Metrics.create () in
  Metrics.register m ~name:"src0" ~kind:Metrics.Counter (fun () -> [ ("a.count", 3) ]);
  Metrics.register m ~name:"src1" ~kind:Metrics.Counter (fun () ->
      [ ("b.count", 5); ("a.count", 10) ]);
  Metrics.register m ~name:"src2" (fun () -> [ ("depth", 7) ]);
  check Alcotest.int "get" 13 (Metrics.get m "a.count");
  check Alcotest.int "get absent" 0 (Metrics.get m "nope");
  check Alcotest.string "deterministic json"
    {|{"counters":{"a.count":13,"b.count":5},"gauges":{"depth":7}}|}
    (Metrics.to_json m);
  (* Re-registering a name replaces. *)
  Metrics.register m ~name:"src2" (fun () -> [ ("depth", 9) ]);
  check Alcotest.int "replaced source" 9 (Metrics.get m "depth")

let test_metrics_subsume_scattered_counters () =
  (* One registry reads the kernel stats, live TLB counters, engine tag
     cache, a listener and a guard — each value identical to what the
     scattered per-component accessor reports. *)
  let k = Kernel.create ~costs:Cost_model.free () in
  let app = W.create_app k in
  W.boot app;
  let main = W.main_ctx app in
  let m = Metrics.create () in
  W.register_metrics m app;
  let guard =
    Guard.create ~reactor:(Wedge_sim.Reactor.create ~clock:k.Kernel.clock ()) ~max_conns:2 ()
  in
  Guard.register_metrics m guard;
  Fiber.run (fun () ->
      W.stat main "demo.requests";
      W.stat main "demo.requests";
      let h = W.sthread_create main (W.sc_create ()) (fun _ _ -> 1) 0 in
      ignore (W.sthread_join main h);
      let l = Chan.listener () in
      Chan.register_metrics m l;
      Chan.shutdown l;
      (try ignore (Chan.connect l) with Chan.Refused _ -> ());
      let l2 = Chan.listener () in
      ignore (Chan.connect l2);
      Fiber.spawn (fun () -> Guard.accept_loop guard l2 ~reject:(fun _ _ -> ()) ~serve:ignore);
      Fiber.yield ();
      Chan.shutdown l2;
      check Alcotest.int "admission refused under capacity" 1
        (Guard.stats guard).Guard.s_admitted;
      check Alcotest.int "chan.refused subsumed" 1 (Metrics.get m "chan.refused"));
  check Alcotest.int "stat counters subsumed"
    (Stats.get k.Kernel.stats "demo.requests")
    (Metrics.get m "demo.requests");
  check Alcotest.int "guard.admitted subsumed" (Guard.stats guard).Guard.s_admitted
    (Metrics.get m "guard.admitted");
  check Alcotest.int "guard.active gauge" (Guard.active guard)
    (Metrics.get m "guard.active");
  (* tlb.hit = totals reaped into kernel stats + the live main process. *)
  let live = W.tlb_stats main in
  check Alcotest.int "tlb hits: reaped + live"
    (Stats.get k.Kernel.stats "tlb.hit" + live.W.tlb_hits)
    (Metrics.get m "tlb.hit");
  check Alcotest.bool "snapshot is one coherent read" true
    (contains (Metrics.to_json m) {|"kernel.live_processes":|})

let () =
  Alcotest.run "trace"
    [
      ( "ring",
        [
          Alcotest.test_case "export shape" `Quick test_export_shape;
          Alcotest.test_case "overflow keeps newest" `Quick test_ring_overflow_keeps_newest;
          Alcotest.test_case "disabled is free" `Quick test_disabled_is_free;
          Alcotest.test_case "arm/disarm/clear" `Quick test_arm_disarm_clear;
        ] );
      ( "validator",
        [ Alcotest.test_case "rejects garbage" `Quick test_validator_rejects_garbage ] );
      ( "engine",
        [
          Alcotest.test_case "spans attributed" `Quick test_engine_spans_attributed;
          Alcotest.test_case "deterministic export" `Quick
            test_export_deterministic_across_runs;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "merge + sort + json" `Quick test_metrics_merges_and_sorts;
          Alcotest.test_case "subsumes scattered counters" `Quick
            test_metrics_subsume_scattered_counters;
        ] );
    ]
