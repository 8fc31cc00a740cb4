(* §5.1 / §5.2 partitioning metrics: how much code runs privileged (inside
   callgates) versus unprivileged (inside sthreads), and how much code the
   partitioning itself required.  Counts are taken from this repository's
   actual sources when available (run from the repo root), split on the
   section markers inside the partitioned servers; otherwise the recorded
   constants are used. *)

open Bench_util

let count_lines path =
  if Sys.file_exists path then begin
    let ic = open_in path in
    let n = ref 0 in
    (try
       while true do
         ignore (input_line ic);
         incr n
       done
     with End_of_file -> ());
    close_in ic;
    Some !n
  end
  else None

(* Lines of [path] from the line containing [from_marker] (or the start) up
   to the line containing [to_marker] (or the end). *)
let count_section path ?from_marker ?to_marker () =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in path in
    let lines = ref [] in
    (try
       while true do
         lines := input_line ic :: !lines
       done
     with End_of_file -> ());
    close_in ic;
    let lines = Array.of_list (List.rev !lines) in
    let find marker dflt =
      match marker with
      | None -> dflt
      | Some m ->
          let found = ref dflt in
          Array.iteri
            (fun i l ->
              if !found = dflt then
                let ml = String.length m and ll = String.length l in
                let rec go j = j + ml <= ll && (String.sub l j ml = m || go (j + 1)) in
                if go 0 then found := i)
            lines;
          !found
    in
    let a = find from_marker 0 in
    let b = find to_marker (Array.length lines) in
    Some (max 0 (b - a))
  end

type side = Trusted | Untrusted

let classify parts =
  let total side =
    List.fold_left
      (fun acc (s, n) -> if s = side then acc + Option.value n ~default:0 else acc)
      0 parts
  in
  (total Trusted, total Untrusted)

let httpd_parts () =
  [
    (* callgate bodies + the session-state they guard *)
    ( Trusted,
      count_section "lib/httpd/httpd_mitm.ml" ~to_marker:"the handshake sthread's view" () );
    (Trusted, count_lines "lib/httpd/conn_state.ml");
    (Trusted, count_lines "lib/tls/record.ml");
    (* master assembly is privileged *)
    (Trusted, count_section "lib/httpd/httpd_mitm.ml" ~from_marker:"master: one connection" ());
    (* the network-facing drivers *)
    ( Untrusted,
      count_section "lib/httpd/httpd_mitm.ml" ~from_marker:"the handshake sthread's view"
        ~to_marker:"master: one connection" () );
    (Untrusted, count_lines "lib/tls/handshake.ml");
    (Untrusted, count_lines "lib/tls/wire.ml");
    (Untrusted, count_lines "lib/httpd/http.ml");
  ]

let sshd_parts () =
  [
    (Trusted, count_section "lib/sshd/sshd_wedge.ml" ~to_marker:"the worker's view of the gates" ());
    (Trusted, count_lines "lib/sshd/skey.ml");
    (Trusted, count_lines "lib/sshd/pam.ml");
    ( Untrusted,
      count_section "lib/sshd/sshd_wedge.ml" ~from_marker:"the worker's view of the gates"
        ~to_marker:"master: one connection" () );
    (Untrusted, count_lines "lib/sshd/sshd_session.ml");
    (Untrusted, count_lines "lib/sshd/ssh_proto.ml");
  ]

let pop3_parts () =
  [
    (Trusted, count_section "lib/pop3/pop3_wedge.ml" ~to_marker:"the worker-side backend" ());
    ( Untrusted,
      count_section "lib/pop3/pop3_wedge.ml" ~from_marker:"the worker-side backend"
        ~to_marker:"master: assemble" () );
    (Untrusted, count_lines "lib/pop3/pop3_proto.ml");
  ]

let repo_total () =
  let dirs = [ "lib/sim"; "lib/kernel"; "lib/mem"; "lib/core"; "lib/crowbar"; "lib/crypto"; "lib/tls"; "lib/net"; "lib/pop3"; "lib/httpd"; "lib/sshd"; "lib/spec" ] in
  List.fold_left
    (fun acc d ->
      if Sys.file_exists d && Sys.is_directory d then
        Array.fold_left
          (fun acc f ->
            if Filename.check_suffix f ".ml" then
              acc + Option.value (count_lines (Filename.concat d f)) ~default:0
            else acc)
          acc (Sys.readdir d)
      else acc)
    0 dirs

(* Software-TLB translation counters for a representative partitioned
   workload: main writes a tagged segment, an sthread with a COW grant
   reads and dirties it.  Live per-sthread counters come from
   [W.tlb_stats]; dead sthreads' totals land in the kernel stats table at
   reap ("tlb.hit" / "tlb.miss" / "tlb.shootdown"). *)
let tlb_counters () =
  let module W = Wedge_core.Wedge in
  let module Kernel = Wedge_kernel.Kernel in
  let module Stats = Wedge_sim.Stats in
  let k = Kernel.create () in
  let app = W.create_app k in
  let main = W.main_ctx app in
  let tag = W.tag_new ~name:"metrics" ~pages:4 main in
  let buf = W.smalloc main 8192 tag in
  for i = 0 to 1023 do
    W.write_u64 main (buf + (i * 8)) i
  done;
  W.boot app;
  let sc = W.sc_create () in
  W.sc_mem_add sc tag Wedge_kernel.Prot.COW;
  let h =
    W.sthread_create main sc
      (fun ctx _ ->
        let acc = ref 0 in
        for i = 0 to 1023 do
          acc := !acc + W.read_u64 ctx (buf + (i * 8))
        done;
        for i = 0 to 1023 do
          W.write_u64 ctx (buf + (i * 8)) (!acc + i)
        done;
        0)
      0
  in
  ignore (W.sthread_join main h);
  let m = W.tlb_stats main in
  header "Software-TLB translation counters (sim workload)";
  Printf.printf "%-34s %10s %10s %12s\n" "address space" "hits" "misses" "shootdowns";
  Printf.printf "%-34s %10d %10d %12d\n" "main (live)" m.W.tlb_hits m.W.tlb_misses
    m.W.tlb_shootdowns;
  let g key = Stats.get k.Kernel.stats key in
  Printf.printf "%-34s %10d %10d %12d\n" "reaped sthreads (kernel stats)" (g "tlb.hit")
    (g "tlb.miss") (g "tlb.shootdown");
  print_newline ()

(* Host-time cost of the observability layer on a hot path: the same
   engine read/write loop with tracing disarmed (one predicted branch per
   instrumented site) and armed (ring-buffer stores).  The disarmed
   number is the one that matters — it is what every production-shaped
   run pays for having the instrumentation compiled in. *)
let tracing_overhead () =
  let module W = Wedge_core.Wedge in
  let module Kernel = Wedge_kernel.Kernel in
  let module Trace = Wedge_sim.Trace in
  let mk () =
    let k = Kernel.create () in
    let app = W.create_app k in
    let main = W.main_ctx app in
    let tag = W.tag_new ~name:"bench" ~pages:4 main in
    let buf = W.smalloc main 8192 tag in
    W.boot app;
    (k, main, buf)
  in
  let iters = 200_000 in
  let loop main buf () =
    for i = 0 to iters - 1 do
      W.write_u64 main (buf + (i land 1023) * 8) i;
      ignore (W.read_u64 main (buf + ((i + 7) land 1023) * 8))
    done
  in
  let k1, main1, buf1 = mk () in
  Trace.disarm k1.Kernel.trace;
  let (), off = Bench_util.wall_time (loop main1 buf1) in
  let k2, main2, buf2 = mk () in
  Trace.arm ~capacity:(1 lsl 16) k2.Kernel.trace;
  let (), on = Bench_util.wall_time (loop main2 buf2) in
  (* The recording site itself, measured directly: disarmed is the branch
     every permanently-instrumented call pays; armed is a ring store. *)
  let clock = Wedge_sim.Clock.create () in
  let tr = Trace.create ~capacity:(1 lsl 16) ~clock () in
  let site_iters = 2_000_000 in
  let site_loop () =
    for _ = 1 to site_iters do
      Trace.instant tr ~name:"bench.site" ~pid:1
    done
  in
  let (), site_off = Bench_util.wall_time site_loop in
  Trace.arm tr;
  let (), site_on = Bench_util.wall_time site_loop in
  header "Tracing overhead (wall clock, this host)";
  Printf.printf "%-44s %12s %12s\n" "" "time" "per op";
  Printf.printf "%-44s %9.1f ms %9.1f ns\n" "engine r/w loop, tracing disarmed"
    (off *. 1e3)
    (off *. 1e9 /. float_of_int (2 * iters));
  Printf.printf "%-44s %9.1f ms %9.1f ns\n"
    "engine r/w loop, tracing armed (hits untraced)" (on *. 1e3)
    (on *. 1e9 /. float_of_int (2 * iters));
  Printf.printf "%-44s %9.1f ms %9.2f ns\n" "Trace.instant, disarmed (the one branch)"
    (site_off *. 1e3)
    (site_off *. 1e9 /. float_of_int site_iters);
  Printf.printf "%-44s %9.1f ms %9.2f ns\n" "Trace.instant, armed (ring store)"
    (site_on *. 1e3)
    (site_on *. 1e9 /. float_of_int site_iters);
  print_newline ()

(* What an armed-but-idle reactor costs off the hot path: the scheduler
   hook when no simulated time passed (one clock comparison), the hook
   with the clock moving over an empty timer wheel, and the channel
   fast path (producers signal the direction's interest set
   unconditionally; with no waiters the signal is one branch).  These
   are the taxes every run pays for the blocking model — they must stay
   in low single-digit nanoseconds. *)
let reactor_overhead () =
  let module Clock = Wedge_sim.Clock in
  let module Reactor = Wedge_sim.Reactor in
  let module Chan = Wedge_net.Chan in
  let clock = Clock.create () in
  let r = Reactor.create ~clock () in
  let hook = Reactor.hook r in
  let iters = 2_000_000 in
  let (), quiet =
    Bench_util.wall_time (fun () ->
        for _ = 1 to iters do
          hook ()
        done)
  in
  let (), moving =
    Bench_util.wall_time (fun () ->
        for _ = 1 to iters do
          Clock.charge clock 1;
          hook ()
        done)
  in
  let chan_iters = 200_000 in
  let ping a b () =
    for _ = 1 to chan_iters do
      Chan.write_string a "x";
      ignore (Chan.read b 1)
    done
  in
  let a, b = Chan.pair () in
  let (), ping_time = Bench_util.wall_time (ping a b) in
  header "Reactor off-path overhead (wall clock, this host)";
  Printf.printf "%-44s %12s %12s\n" "" "time" "per op";
  Printf.printf "%-44s %9.1f ms %9.2f ns\n" "scheduler hook, clock unmoved (one compare)"
    (quiet *. 1e3)
    (quiet *. 1e9 /. float_of_int iters);
  Printf.printf "%-44s %9.1f ms %9.2f ns\n" "scheduler hook, clock moving (empty wheel)"
    (moving *. 1e3)
    (moving *. 1e9 /. float_of_int iters);
  Printf.printf "%-44s %9.1f ms %9.1f ns\n" "chan write+read ping (no waiters)"
    (ping_time *. 1e3)
    (ping_time *. 1e9 /. float_of_int (2 * chan_iters));
  print_newline ()

(* What the correctness harness costs: a full invariant sweep (refcounts,
   rlimits, TLBs, smalloc walks, guards) measured directly against a
   booted application, the differential reference model's lockstep tax on
   the engine r/w loop, and end-to-end exploration throughput. *)
let oracle_overhead () =
  let module W = Wedge_core.Wedge in
  let module Kernel = Wedge_kernel.Kernel in
  let module Oracle = Wedge_check.Oracle in
  let module Refvm = Wedge_check.Refvm in
  let module Explore = Wedge_check.Explore in
  (* Direct cost of one Oracle.check against a booted app. *)
  let k = Kernel.create ~costs:Wedge_sim.Cost_model.free () in
  let app = W.create_app ~image_pages:60 k in
  W.boot app;
  let main = W.main_ctx app in
  let tag = W.tag_new ~name:"bench.oracle" ~pages:4 main in
  ignore (W.smalloc main 256 tag);
  let oracle = Oracle.create k in
  Oracle.set_app oracle app;
  let sweeps = 2_000 in
  let (), sweep_t =
    Bench_util.wall_time (fun () ->
        for _ = 1 to sweeps do
          Oracle.check oracle
        done)
  in
  (* Lockstep tax of the differential model on the engine r/w loop. *)
  let buf = W.smalloc main 8192 tag in
  let iters = 100_000 in
  let loop () =
    for i = 0 to iters - 1 do
      W.write_u64 main (buf + (i land 1023) * 8) i;
      ignore (W.read_u64 main (buf + ((i + 7) land 1023) * 8))
    done
  in
  let (), plain = Bench_util.wall_time loop in
  let refvm = Refvm.create k in
  Refvm.arm refvm;
  let (), lockstep = Bench_util.wall_time loop in
  Refvm.disarm refvm;
  (* End-to-end exploration throughput on the pop3 chaos scenario. *)
  let schedules = 10 in
  let explore diff () =
    match Explore.explore ~schedules ~diff ~scenario:"pop3" ~seed:1 () with
    | Explore.Passed _ -> ()
    | Explore.Failed _ as v -> failwith (Explore.verdict_to_string v)
  in
  let (), ex_plain = Bench_util.wall_time (explore false) in
  let (), ex_diff = Bench_util.wall_time (explore true) in
  header "Correctness-harness overhead (wall clock, this host)";
  Printf.printf "%-44s %12s %12s\n" "" "time" "per op";
  Printf.printf "%-44s %9.1f ms %9.1f us\n" "Oracle.check full sweep (booted app)"
    (sweep_t *. 1e3)
    (sweep_t *. 1e6 /. float_of_int sweeps);
  Printf.printf "%-44s %9.1f ms %9.1f ns\n" "engine r/w loop, no recorder" (plain *. 1e3)
    (plain *. 1e9 /. float_of_int (2 * iters));
  Printf.printf "%-44s %9.1f ms %9.1f ns\n" "engine r/w loop, differential lockstep"
    (lockstep *. 1e3)
    (lockstep *. 1e9 /. float_of_int (2 * iters));
  Printf.printf "%-44s %9.1f ms %9.1f ms\n"
    (Printf.sprintf "explore pop3 x%d schedules, oracles on" schedules)
    (ex_plain *. 1e3)
    (ex_plain *. 1e3 /. float_of_int schedules);
  Printf.printf "%-44s %9.1f ms %9.1f ms\n"
    (Printf.sprintf "explore pop3 x%d schedules, + differential" schedules)
    (ex_diff *. 1e3)
    (ex_diff *. 1e3 /. float_of_int schedules);
  print_newline ()

(* The metrics-registry view of the snapshot pool: freeze one image,
   stamp two workers out of it and discard, then read the registry
   counters and gauges back — the surface an operator scrapes.  All
   simulated, so the numbers are deterministic. *)
let pool_registry () =
  let module W = Wedge_core.Wedge in
  let module Kernel = Wedge_kernel.Kernel in
  let module Metrics = Wedge_sim.Metrics in
  let module Fiber = Wedge_sim.Fiber in
  let k = Kernel.create () in
  let app = W.create_app ~image_pages:60 k in
  W.boot app;
  let main = W.main_ctx app in
  Fiber.run (fun () ->
      let pool =
        W.Pool.freeze ~name:"metrics.pool"
          ~warm:(fun ctx -> ignore (W.malloc ctx 64))
          main (W.sc_create ())
      in
      ignore (W.sthread_join main (W.Pool.stamp main pool (fun _ x -> x) 0));
      ignore (W.sthread_join main (W.Pool.stamp main pool (fun _ x -> x) 0));
      let keep = W.Pool.freeze ~name:"metrics.kept" main (W.sc_create ()) in
      ignore keep;
      W.Pool.discard main pool);
  let m = Metrics.create () in
  W.register_metrics m app;
  header "Snapshot-pool registry counters (sim workload)";
  List.iter
    (fun key -> Printf.printf "%-34s %10d\n" key (Metrics.get m key))
    [ "pool.freezes"; "pool.stamps"; "pool.hits"; "pool.images"; "pool.frozen_frames" ];
  print_newline ()

let run () =
  header "Partitioning metrics (§5.1 / §5.2) - trusted vs untrusted code";
  if not (Sys.file_exists "lib/httpd/httpd_mitm.ml") then
    print_endline "(sources not found: run from the repository root for live counts)"
  else begin
    let ht, hu = classify (httpd_parts ()) in
    let st, su = classify (sshd_parts ()) in
    Printf.printf "%-22s %12s %12s %22s\n" "application" "callgates" "sthreads" "trusted fraction";
    Printf.printf "%-22s %9d LoC %9d LoC %15.0f%% (paper 26%%)\n" "httpd (this repo)" ht hu
      (100. *. float_of_int ht /. float_of_int (ht + hu));
    Printf.printf "%-22s %12s %12s %22s\n" "  paper Apache/OpenSSL" "~16K LoC" "~45K LoC" "26% (-2/3 trusted)";
    Printf.printf "%-22s %9d LoC %9d LoC %15.0f%% (paper 19%%)\n" "sshd (this repo)" st su
      (100. *. float_of_int st /. float_of_int (st + su));
    Printf.printf "%-22s %12s %12s %22s\n" "  paper OpenSSH" "~3.3K LoC" "~14K LoC" "19% (-75% trusted)";
    let pt, pu = classify (pop3_parts ()) in
    Printf.printf "%-22s %9d LoC %9d LoC %15.0f%% (the paper's 2 design)\n" "pop3 (this repo)" pt pu
      (100. *. float_of_int pt /. float_of_int (pt + pu));
    let partition_delta =
      Option.value (count_lines "lib/httpd/httpd_mitm.ml") ~default:0
      + Option.value (count_lines "lib/httpd/conn_state.ml") ~default:0
      + Option.value (count_lines "lib/sshd/sshd_wedge.ml") ~default:0
    in
    let total = repo_total () in
    Printf.printf
      "\nlines written to express the partitionings: %d of %d total (%.1f%%)\n"
      partition_delta total
      (100. *. float_of_int partition_delta /. float_of_int total);
    Printf.printf "paper: Apache ~1700 changed lines (0.5%%), OpenSSH 564 changed lines (2%%)\n"
  end;
  tlb_counters ();
  pool_registry ();
  tracing_overhead ();
  reactor_overhead ();
  oracle_overhead ()
