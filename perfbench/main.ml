(* perfbench: the repository benchmark.

     main.exe --workload pop3_churn|pop3_bulk|https_mix --seed N
              --seconds S --trace 0|1

   --trace 0 is the end-to-end run: the metrics a user of the servers
   sees, all on the simulated clock except set-up time and host memory.
   --trace 1 is the per-layer run: counters from the same closed-loop
   run, plus one client at a time untraced and traced, whose spans give
   per-layer self times (written to perfbench/out/).  Every line before
   the last is for people; the last is one JSON object for machines.  The
   exit code is nonzero whenever the run was not correct. *)

open Perfbench
module Cost_model = Wedge_sim.Cost_model
module Rsa = Wedge_crypto.Rsa
module Drbg = Wedge_crypto.Drbg

let usage =
  "main.exe --workload pop3_churn|pop3_bulk|https_mix --seed N --seconds S --trace 0|1"

(* Per-layer plans: 256 pop3_churn connections (2 LIST+RETR-all, 23
   LIST), every pop3_bulk mailbox once, 64 https_mix connections. *)
let single_per_client = function
  | Plan.Pop3_churn -> 16
  | Plan.Pop3_bulk -> Plan.bulk_users / Plan.clients
  | Plan.Https_mix -> 4

let median l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let per n x = if n = 0 then 0. else float_of_int x /. float_of_int n
let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b)
let us ns = ns /. 1000.

type metric = { m_name : string; m_unit : string; m_value : float }

let m m_name m_unit m_value = { m_name; m_unit; m_value }

let failed_of (c : Measure.closed) =
  (* a guard rejection, shed or cut always costs a client its connection;
     the max keeps one counted once *)
  max
    (c.sample.Sample.failed + c.warmup.Sample.failed + c.replay.Sample.failed)
    (World.get c.counters "guard.rejected" + World.get c.counters "guard.timed_out")

let attempted_of (c : Measure.closed) =
  c.sample.Sample.attempted + c.warmup.Sample.attempted + c.replay.Sample.attempted

let mib words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.

let end_to_end (c : Measure.closed) =
  let n = c.sample.Sample.attempted in
  let sorted = Sample.sorted c.sample in
  [
    m "setup_s" "s" (median c.setups_s);
    m "sim_conn_per_s" "1/s" (float_of_int n /. (float_of_int (World.get c.counters "sim.ns") /. 1e9));
    m "sim_p50_us" "us" (us (float_of_int (Sample.percentile sorted 0.50)));
    m "sim_p99_us" "us" (us (float_of_int (Sample.percentile sorted 0.99)));
    m "alloc_words_per_conn" "words" (c.alloc_words /. float_of_int n);
    m "heap_peak_mb" "MiB" (mib c.heap_peak_words);
  ]

(* Host µs of one [Rsa.decrypt] with the server key: the median of a
   few dozen, after one untimed call. *)
let rsa_private_host_us workload ~seed =
  match workload with
  | Plan.Https_mix ->
      let priv = Rsa.demo_key () in
      let rng = Drbg.create ~seed in
      let ct = Rsa.encrypt rng priv.Rsa.pub (Drbg.bytes rng 48) in
      ignore (Rsa.decrypt priv ct);
      median
        (List.init 31 (fun _ ->
             let t0 = Unix.gettimeofday () in
             ignore (Rsa.decrypt priv ct);
             (Unix.gettimeofday () -. t0) *. 1e6))
  | _ -> 0.

let per_layer workload ~seed (c : Measure.closed) (u : Measure.single) (t : Measure.single) =
  let n = c.sample.Sample.attempted in
  let get = World.get c.counters in
  let k key = get ("kernel." ^ key) in
  let pc x = per n x in
  let fresh = k "tag_new.fresh" and reuse = k "tag_new.reuse" in
  let traps = World.sum_prefix c.counters "kernel.trap." - k "trap.batched_ops" in
  let nt = t.Measure.s_conns in
  let kt = t.Measure.s_kernel in
  let spans = Option.get t.Measure.s_spans in
  let mean name = us (Spans.mean_ns spans name) in
  let alloc_per (s : Measure.single) = s.Measure.s_alloc_words /. float_of_int s.Measure.s_conns in
  [
    m "core.sthreads_per_conn" "count" (pc (k "sthread_create"));
    m "core.cgates_per_conn" "count" (pc (k "cgate"));
    m "core.cgates_recycled_per_conn" "count" (pc (k "cgate.recycled"));
    m "core.pool_stamps_per_conn" "count" (pc (k "pool.stamp"));
    m "core.restarts" "count" (float_of_int (k "supervisor.restart"));
    m "core.compartment_faults" "count" (float_of_int (k "fault.compartment"));
    m "core.spawn_sim_us_per_conn" "us" (us (per nt kt.Spans.spawn_ns));
    m "core.cgate_entry_sim_us_per_conn" "us" (us (per nt kt.Spans.cgate_entry_ns));
    m "mem.tags_per_conn" "count" (pc (fresh + reuse));
    m "mem.tag_reuse_ratio" "ratio" (ratio reuse fresh);
    m "mem.smallocs_per_conn" "count" (pc (k "smalloc"));
    m "kernel.traps_per_conn" "count" (pc traps);
    m "kernel.batched_ops_per_conn" "count" (pc (k "trap.batched_ops"));
    m "kernel.tlb_hit_ratio" "ratio" (ratio (get "tlb.hits") (get "tlb.misses"));
    m "kernel.tlb_shootdowns_per_conn" "count" (pc (get "tlb.shootdowns"));
    m "kernel.frames_peak" "count" (float_of_int c.Measure.frames_peak);
    m "net.bytes_per_conn" "B" (pc (get "client.bytes"));
    m "net.chan_ops_per_conn" "count" (pc (get "client.calls" + k "trap.read" + k "trap.write"));
    m "net.guard_admitted" "count" (float_of_int (get "guard.admitted"));
    m "net.guard_rejected" "count" (float_of_int (get "guard.rejected"));
    m "net.guard_timed_out" "count" (float_of_int (get "guard.timed_out"));
    m "sim.switches_per_conn" "count" (pc (get "sched.switches"));
    m "sim.reactor_parks_per_conn" "count" (pc (get "reactor.parks"));
    m "sim.reactor_wakeups_per_conn" "count" (pc (get "reactor.wakeups"));
    m "tls.resume_ratio" "ratio" (pc (get "client.resumed"));
    m "tls.setup_session_key_sim_us" "us"
      (us (per kt.Spans.session_key_calls kt.Spans.session_key_ns));
    m "crypto.rsa_private_host_us" "us" (rsa_private_host_us workload ~seed);
    m "pop3.connect_sim_us" "us" (mean "pop3.connect");
    m "pop3.login_sim_us" "us" (mean "pop3.login");
    m "pop3.stat_sim_us" "us" (mean "pop3.stat");
    m "pop3.list_sim_us" "us" (mean "pop3.list");
    m "pop3.retr_sim_us_per_kib" "us/KiB" (us (Spans.ns_per_kib spans "pop3.retr"));
    m "pop3.quit_sim_us" "us" (mean "pop3.quit");
    m "httpd.full_sim_us" "us" (mean "httpd.full");
    m "httpd.resumed_sim_us" "us" (mean "httpd.resumed");
    m "host.cpu_us_per_conn" "us" (c.Measure.batch_cpu_s *. 1e6);
    m "host.minor_gcs_per_kconn" "count" (1000. *. pc (get "gc.minor_collections"));
    m "host.major_gcs" "count" (float_of_int (get "gc.major_collections"));
    m "host.trace_overhead_ratio" "ratio" (alloc_per t /. alloc_per u);
  ]

(* ---- output ----------------------------------------------------------- *)

let print_metrics ms =
  List.iter (fun x -> Printf.printf "  %-34s %16.6f %s\n" x.m_name x.m_value x.m_unit) ms

let json ~correct ~attempted ~failed ms =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.m_name (num x.m_value) x.m_unit)
          ms))

(* Checks whose failure makes the run incorrect; each prints why. *)
let check problems cond fmt =
  Printf.ksprintf (fun s -> if not cond then problems := s :: !problems) fmt

let check_closed problems (c : Measure.closed) =
  let n = c.sample.Sample.attempted in
  (match c.sample.Sample.first_error with
  | Some e -> check problems false "measured connection failed: %s" e
  | None -> ());
  (match c.warmup.Sample.first_error with
  | Some e -> check problems false "warm-up connection failed: %s" e
  | None -> ());
  (match c.replay.Sample.first_error with
  | Some e -> check problems false "replayed connection failed: %s" e
  | None -> ());
  check problems (failed_of c = 0) "failed_ratio %d/%d > 0" (failed_of c) (attempted_of c);
  check problems (Sample.tail_ok ~n 0.99) "only %d samples beyond p99 (n=%d)"
    (Sample.beyond ~n 0.99) n;
  List.iter (fun l -> check problems false "%s" l) c.problems

let report_closed workload (c : Measure.closed) =
  let n = c.sample.Sample.attempted in
  Printf.printf
    "closed loop: %d clients, %d epochs of %d rounds of %d connections, %d measured, %d replays\n"
    Plan.clients c.epochs c.rounds (Plan.clients * Plan.per_client workload) n c.replays;
  Printf.printf "set-ups (s): %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.4f") c.setups_s));
  Printf.printf "p99 from %d samples, %d beyond it\n" n (Sample.beyond ~n 0.99)

let out = "perfbench/out"

let main workload ~seed ~seconds ~trace =
  let problems = ref [] in
  let users = Plan.users ~seed workload in
  let c = Measure.closed_loop workload ~seed ~users ~seconds in
  report_closed workload c;
  check_closed problems c;
  let attempted = ref (attempted_of c) and failed = ref (failed_of c) in
  let metrics =
    if not trace then end_to_end c
    else begin
      let n_per_client = single_per_client workload in
      let u = Measure.one_client workload ~seed ~users ~n_per_client ~traced:false in
      let t = Measure.one_client workload ~seed ~users ~n_per_client ~traced:true in
      List.iter
        (fun (s : Measure.single) ->
          attempted := !attempted + s.s_sample.Sample.attempted;
          failed := !failed + s.s_sample.Sample.failed;
          match s.s_sample.Sample.first_error with
          | Some e -> check problems false "one-client connection failed: %s" e
          | None -> ())
        [ u; t ];
      check problems (t.s_dropped = 0) "kernel trace dropped %d events" t.s_dropped;
      let simulated (s : Measure.single) =
        (s.s_sample.Sample.latencies, World.get s.s_counters "sim.ns",
         List.filter (fun (k, _) -> String.starts_with ~prefix:"kernel." k) s.s_counters)
      in
      check problems (simulated u = simulated t) "tracing changed simulated numbers";
      let spans = Option.get t.s_spans in
      (try Sys.mkdir out 0o755 with Sys_error _ -> ());
      let path = Filename.concat out (Printf.sprintf "spans-%s-%d.jsonl" (Plan.name workload) seed) in
      Spans.write spans path;
      Printf.printf "one client: %d connections traced, %d spans written to %s\n" t.s_conns
        (List.length (Spans.spans spans))
        path;
      per_layer workload ~seed c u t
    end
  in
  print_metrics metrics;
  (* end-to-end, but 0 on every correct run: printed, carried in the JSON
     as [failed] / [attempted] *)
  Printf.printf "  %-34s %16.6f ratio (%d of %d)\n" "failed_ratio"
    (float_of_int !failed /. float_of_int (max 1 !attempted))
    !failed !attempted;
  List.iter (fun p -> Printf.printf "NOT CORRECT: %s\n" p) (List.rev !problems);
  let correct = !problems = [] in
  print_endline (json ~correct ~attempted:!attempted ~failed:!failed metrics);
  if not correct then exit 1

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " pop3_churn | pop3_bulk | https_mix");
      ("--seed", Arg.Int (fun s -> seed := Some s), " workload seed (default: pinned)");
      ("--seconds", Arg.Set_int seconds, " host seconds to measure");
      ("--trace", Arg.Set_int trace, " 0 = end-to-end run, 1 = per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt in
  let workload =
    match Plan.of_name !workload with Some w -> w | None -> fail "unknown workload %S" !workload
  in
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  if !seconds < 1 then fail "--seconds must be at least 1";
  (match Pins.cost_mismatches Cost_model.default with
  | [] -> ()
  | l -> fail "cost model differs from the pins, refusing to report:\n  %s" (String.concat "\n  " l));
  let seed = Option.value !seed ~default:Pins.default_seed in
  Printf.printf "perfbench %s seed=%d seconds=%d trace=%d (held-out seed %d)\n"
    (Plan.name workload) seed !seconds !trace Pins.held_out_seed;
  Printf.printf "cost model: %s\n"
    (String.concat " "
       (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (Pins.cost_fields Cost_model.default)));
  main workload ~seed ~seconds:(float_of_int !seconds) ~trace:(!trace = 1)
