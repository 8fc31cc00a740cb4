(* The benchmark's own tests: its percentile rule, its failure
   accounting, its determinism, and its cost-model pins. *)

open Perfbench
module Chan = Wedge_net.Chan
module Shard = Wedge_net.Shard
module Cost_model = Wedge_sim.Cost_model

let test_percentile_rank () =
  List.iter
    (fun n ->
      let sorted = List.init n Fun.id in
      List.iter
        (fun p ->
          Alcotest.(check int)
            (Printf.sprintf "rank n=%d p=%.2f" n p)
            (Sample.percentile sorted p) (Sample.rank ~n p))
        [ 0.; 0.5; 0.99; 1. ])
    [ 1; 2; 100; 1000; 1001; 4096 ];
  (* p99 keeps ten samples beyond it from n = 1001 on *)
  Alcotest.(check int) "beyond at 1000" 9 (Sample.beyond ~n:1000 0.99);
  Alcotest.(check bool) "1000 too few" false (Sample.tail_ok ~n:1000 0.99);
  Alcotest.(check int) "beyond at 1001" 10 (Sample.beyond ~n:1001 0.99);
  Alcotest.(check bool) "1001 enough" true (Sample.tail_ok ~n:1001 0.99);
  Alcotest.(check bool) "p50 of 21" true (Sample.tail_ok ~n:21 0.5)

let test_failure_is_infinite_latency () =
  let s = Sample.create () in
  for i = 1 to 1000 do
    Sample.record s (Ok i)
  done;
  for _ = 1 to 20 do
    Sample.record s (Error "wrong bytes")
  done;
  Alcotest.(check int) "attempted" 1020 s.Sample.attempted;
  Alcotest.(check int) "failed" 20 s.Sample.failed;
  Alcotest.(check int) "p99 is a failure" Sample.infinity_ns
    (Sample.percentile (Sample.sorted s) 0.99);
  Alcotest.(check (option string)) "first error" (Some "wrong bytes") s.Sample.first_error

(* A connect the front door refuses is one failed connection of the run,
   not an exception out of it. *)
let test_refused_connect () =
  let workload = Plan.Pop3_churn in
  let w = World.build workload ~seed:3 ~users:(Plan.users ~seed:3 workload) in
  let sample = Sample.create () in
  World.session w (fun () ->
      Chan.shutdown (Shard.front_listener w.World.front 0);
      World.round w [| [| Plan.Pop3 { user = 0; op = Plan.Stat } |] |] sample);
  Alcotest.(check int) "attempted" 1 sample.Sample.attempted;
  Alcotest.(check int) "failed" 1 sample.Sample.failed;
  Alcotest.(check (list int)) "latency" [ Sample.infinity_ns ] sample.Sample.latencies;
  match sample.Sample.first_error with
  | Some e ->
      let k = "Chan.Refused" in
      let rec found i =
        i + String.length k <= String.length e
        && (String.sub e i (String.length k) = k || found (i + 1))
      in
      Alcotest.(check bool) ("refusal reported: " ^ e) true (found 0)
  | None -> Alcotest.fail "no error recorded"

(* Two in-process runs of the same small seeded pop3_churn agree on every
   simulated number and on host words allocated per connection. *)
let test_deterministic () =
  let run () =
    let workload = Plan.Pop3_churn in
    let c =
      Measure.closed_loop ~n_per_client:4 ~epochs:1 ~epoch_rounds:2 ~setups:1 workload ~seed:7
        ~users:(Plan.users ~seed:7 workload) ~seconds:0.
    in
    ( c.Measure.sample.Sample.latencies,
      List.filter (fun (k, _) -> not (String.starts_with ~prefix:"gc." k)) c.Measure.counters,
      c.Measure.alloc_words /. float_of_int c.Measure.sample.Sample.attempted )
  in
  let lat1, counters1, alloc1 = run () in
  let lat2, counters2, alloc2 = run () in
  Alcotest.(check int) "connections" 128 (List.length lat1);
  Alcotest.(check (list int)) "latencies" lat1 lat2;
  Alcotest.(check (list (pair string int))) "counters" counters1 counters2;
  Alcotest.(check (float 0.)) "alloc words per connection" alloc1 alloc2

let test_pins () =
  Alcotest.(check (list string)) "pinned cost model" [] (Pins.cost_mismatches Cost_model.default);
  Alcotest.(check (list string))
    "an edited constant is caught" [ "syscall_trap = 499, pinned 500" ]
    (Pins.cost_mismatches { Cost_model.default with syscall_trap = 499 })

let () =
  Alcotest.run "perfbench"
    [
      ( "sample",
        [
          Alcotest.test_case "percentile rank and ten-beyond rule" `Quick test_percentile_rank;
          Alcotest.test_case "failure is infinite latency" `Quick test_failure_is_infinite_latency;
        ] );
      ( "run",
        [
          Alcotest.test_case "refused connect is a failure" `Quick test_refused_connect;
          Alcotest.test_case "seeded pop3_churn is deterministic" `Quick test_deterministic;
          Alcotest.test_case "cost model pins" `Quick test_pins;
        ] );
    ]
