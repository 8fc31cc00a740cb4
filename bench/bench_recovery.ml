(* Mean-time-to-recovery under injected fault storms — the self-healing
   counterpart of the containment benchmarks.

   One simulated world runs the partitioned POP3 server with its
   declared supervision tree behind a guard armed with a circuit breaker
   and a watchdog.  A deterministic client drives repeated *incidents*:
   a burst of requests with channel faults armed (the backend "goes
   bad"), then clean requests with the plan disarmed until one succeeds
   again.  Everything is measured on the simulated clock, so the JSON
   artifact is byte-stable for a given seed:

   - MTTR: first failed request -> next successful request, per incident
     (p50/p99 across incidents);
   - requests lost per fault: failed or shed requests per incident while
     the backend was broken or the breaker was cooling down;
   - breaker reaction time: first failure of a streak -> trip (recorded
     by the guard);
   - watchdog cuts: hung (half-written header) connections reclaimed at
     the heartbeat deadline.

   [WEDGE_RECOVERY_SMOKE=1] shrinks the incident count for CI. *)

module Kernel = Wedge_kernel.Kernel
module Cost_model = Wedge_sim.Cost_model
module Clock = Wedge_sim.Clock
module Fiber = Wedge_sim.Fiber
module Fault_plan = Wedge_fault.Fault_plan
module Chan = Wedge_net.Chan
module Guard = Wedge_net.Guard
module Watchdog = Wedge_net.Watchdog
module Reactor = Wedge_sim.Reactor
module Byzantine = Wedge_net.Byzantine
module Service = Wedge_net.Service
module W = Wedge_core.Wedge
module Supervisor = Wedge_core.Supervisor

let smoke =
  match Sys.getenv_opt "WEDGE_RECOVERY_SMOKE" with Some "1" -> true | _ -> false

let n_incidents = if smoke then 5 else 30
let n_hangs = if smoke then 3 else 8
let burst_requests = 6
let watchdog_deadline_ns = 6_000
let clean_request = "USER alice\r\nPASS wonderland\r\nSTAT\r\nQUIT\r\n"

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let read_until_eof ep =
  let buf = Buffer.create 64 in
  let rec go () =
    let b = Chan.read ep 4096 in
    if Bytes.length b = 0 then Buffer.contents buf
    else begin
      Buffer.add_bytes buf b;
      go ()
    end
  in
  go ()

(* One serial request from the bench's own fiber.  Success means the
   session actually served: a greeting arrived and neither the breaker's
   busy answer nor the degraded farewell did. *)
let request l =
  match Chan.connect l with
  | exception _ -> false
  | ep ->
      let ok =
        try
          Chan.write_string ep clean_request;
          let resp = read_until_eof ep in
          contains resp "+OK"
          && (not (contains resp "-ERR busy"))
          && not (contains resp "-ERR internal")
        with _ -> false
      in
      (try Chan.close ep with _ -> ());
      ok

type incident = { mttr_ns : int; lost : int }

type variant = {
  v_incidents : incident list;
  v_reactions : int list;
  v_stats : Guard.stats;
  v_cuts : int;
  v_stamps : int;
}

(* The spawn-priced cost model both variants pay: per-PTE and per-fd
   copy on a fresh boot, the flat stamp on a pooled one.  The prices are
   the paper's Table 2 shape scaled down so spawns stay well inside the
   storm's watchdog deadline and breaker windows — the fresh/pooled
   *difference* per restart is what the rows measure, and it scales with
   the image either way. *)
let spawn_costs =
  { Cost_model.free with Cost_model.pte_copy = 20; fd_dup = 25; pool_stamp = 100 }

let measure ~pooled =
  let plan = Fault_plan.create ~seed:0xEC0 () in
  Fault_plan.rule plan ~site:"chan.read" ~prob:0.6 [ Fault_plan.Reset ];
  Fault_plan.rule plan ~site:"chan.write" ~prob:0.6 [ Fault_plan.Reset ];
  Fault_plan.disarm plan;
  let k = Kernel.create ~costs:spawn_costs ~faults:plan () in
  let clock = k.Kernel.clock in
  Wedge_pop3.Pop3_env.install k Wedge_pop3.Pop3_env.default_users;
  let app = W.create_app ~image_pages:60 k in
  W.boot app;
  let main_ctx = W.main_ctx app in
  let l = Chan.listener ~costs:Cost_model.free ~faults:plan ~backlog:8 () in
  let w = Watchdog.create ~deadline_ns:watchdog_deadline_ns clock in
  let r = Reactor.create ~clock () in
  (* No header deadline: the watchdog must be the only thing reclaiming
     the hang phase's half-written headers — that is what its row
     measures (a guard deadline would race it and steal the cut). *)
  let guard =
    Guard.create ~reactor:r
      ~breaker:
        (Guard.breaker_config ~consecutive:3 ~rate:0.5 ~min_samples:6
           ~window_ns:40_000 ~open_ns:5_000 ~probes:2 ~brownout:0.3 ())
      ~watchdog:w ~max_conns:4 ()
  in
  let service = Wedge_pop3.Pop3_wedge.service in
  let pool = if pooled then Some (service.Service.image main_ctx) else None in
  let tree = Service.tree ?pool service main_ctx in
  let incidents = ref [] in
  let hang_tally = Byzantine.tally () in
  Fiber.run ~clock ~on_switch:(Reactor.hook r) ~on_idle:(Reactor.idle r) (fun () ->
      Fiber.spawn (fun () ->
          Service.serve_loop ~supervision:tree service main_ctx guard l);
      (* Settle: one clean request so the world is warm before incident 0. *)
      ignore (request l);
      for _ = 1 to n_incidents do
        (* Break the backend: a burst of requests under heavy channel
           faults.  The first failure timestamps the incident. *)
        Fault_plan.arm plan;
        let first_fail = ref (-1) in
        let lost = ref 0 in
        for _ = 1 to burst_requests do
          if not (request l) then begin
            if !first_fail < 0 then first_fail := Clock.now clock;
            incr lost
          end;
          Clock.charge clock 500
        done;
        Fault_plan.disarm plan;
        (* Recover: clean requests until one serves again.  Requests the
           breaker sheds while cooling down are real losses too. *)
        let recovered = ref false in
        let tries = ref 0 in
        while (not !recovered) && !tries < 400 do
          incr tries;
          Clock.charge clock 1_000;
          if request l then recovered := true else incr lost
        done;
        if not !recovered then failwith "bench recovery: backend never recovered";
        (match !first_fail with
        | -1 -> () (* burst didn't land a failure: no incident to record *)
        | t0 ->
            incidents :=
              { mttr_ns = Clock.now clock - t0; lost = !lost } :: !incidents);
        (* Heal fully between incidents so they are independent. *)
        let heal_tries = ref 0 in
        while Guard.breaker_state guard <> Some Guard.Closed && !heal_tries < 100 do
          incr heal_tries;
          Clock.charge clock 6_000;
          ignore (request l)
        done
      done;
      (* Hang phase: half-written headers that only the watchdog can
         reclaim; each cut lands within the heartbeat deadline. *)
      for _ = 1 to n_hangs do
        Fiber.spawn (fun () ->
            Byzantine.mid_header_stall hang_tally l ~clock ~step_ns:1_000
              ~prefix:"USER ali" ~is_rejection:(fun _ -> false) ())
      done;
      Fiber.wait_until ~what:"hang clients resolved" (fun () ->
          Byzantine.total hang_tally = n_hangs);
      Guard.drain guard l);
  {
    v_incidents = List.rev !incidents;
    v_reactions = List.sort compare (Guard.breaker_reactions guard);
    v_stats = Guard.stats guard;
    v_cuts = Watchdog.cuts w;
    v_stamps = app.Wedge_core.Engine.pool_stamps;
  }

type digest = {
  d_n : int;
  d_p50 : int;
  d_p99 : int;
  d_mean : int;
  d_lost : float;
  d_r_p50 : int;
  d_r_max : int;
}

let digest_of v =
  let n = List.length v.v_incidents in
  let mttrs = List.sort compare (List.map (fun i -> i.mttr_ns) v.v_incidents) in
  let lost_total = List.fold_left (fun a i -> a + i.lost) 0 v.v_incidents in
  {
    d_n = n;
    d_p50 = Bench_util.percentile mttrs 0.50;
    d_p99 = Bench_util.percentile mttrs 0.99;
    d_mean = (if n = 0 then 0 else List.fold_left ( + ) 0 mttrs / n);
    d_lost = (if n = 0 then 0. else float_of_int lost_total /. float_of_int n);
    d_r_p50 = Bench_util.percentile v.v_reactions 0.50;
    d_r_max = List.fold_left max 0 v.v_reactions;
  }

let report ~label v d =
  Bench_util.row3 ("MTTR p50 (" ^ label ^ ")") (Bench_util.us d.d_p50) "";
  Bench_util.row3 ("MTTR p99 (" ^ label ^ ")") (Bench_util.us d.d_p99) "";
  Bench_util.row3 ("MTTR mean (" ^ label ^ ")") (Bench_util.us d.d_mean) "";
  Bench_util.row3
    ("requests lost / fault (" ^ label ^ ")")
    (Printf.sprintf "%.2f" d.d_lost) "";
  Bench_util.row3
    ("breaker trips (" ^ label ^ ")")
    (string_of_int v.v_stats.Guard.s_breaker_opened) "";
  Bench_util.row3 ("breaker reaction p50 (" ^ label ^ ")") (Bench_util.us d.d_r_p50) "";
  Bench_util.row3 ("breaker reaction max (" ^ label ^ ")") (Bench_util.us d.d_r_max) "";
  Bench_util.row3 ("admissions shed (" ^ label ^ ")")
    (string_of_int v.v_stats.Guard.s_shed) "";
  Bench_util.row3
    ("watchdog cuts (" ^ label ^ ")")
    (string_of_int v.v_cuts)
    (Printf.sprintf "(deadline %s)" (Bench_util.us watchdog_deadline_ns));
  Bench_util.row3 ("pool stamps (" ^ label ^ ")") (string_of_int v.v_stamps) ""

let variant_json ~label v d =
  Printf.sprintf
    "  \"%s\": {\n\
    \    \"incidents\": %d,\n\
    \    \"mttr_ns\": { \"p50\": %d, \"p99\": %d, \"mean\": %d },\n\
    \    \"requests_lost_per_fault\": %.2f,\n\
    \    \"breaker\": { \"opened\": %d, \"shed\": %d, \"reaction_ns_p50\": %d, \"reaction_ns_max\": %d },\n\
    \    \"watchdog\": { \"cuts\": %d, \"deadline_ns\": %d, \"hang_clients\": %d },\n\
    \    \"pool_stamps\": %d\n\
    \  }"
    label d.d_n d.d_p50 d.d_p99 d.d_mean d.d_lost v.v_stats.Guard.s_breaker_opened
    v.v_stats.Guard.s_shed d.d_r_p50 d.d_r_max v.v_cuts watchdog_deadline_ns n_hangs
    v.v_stamps

let run () =
  Bench_util.header
    (Printf.sprintf
       "Self-healing MTTR, fresh boot vs pooled stamp: %d incidents + %d hangs"
       n_incidents n_hangs);
  let fresh = measure ~pooled:false in
  let pooled = measure ~pooled:true in
  let df = digest_of fresh and dp = digest_of pooled in
  Bench_util.row3 "metric" "value" "unit";
  Bench_util.hr ();
  report ~label:"fresh" fresh df;
  Bench_util.hr ();
  report ~label:"pooled" pooled dp;
  Printf.printf "  (every number is simulated time: the artifact below is\n";
  print_endline "   byte-stable for this seed and schedule)";
  (* The gates: the breaker reaction fix holds (a recorded p50 of 0 was
     the bug), the pool was actually exercised, and pooled recovery
     strictly beats both the fresh-boot run and the historical
     fresh-boot baseline (22.3 us, measured when spawn was free). *)
  if df.d_r_p50 <= 0 || dp.d_r_p50 <= 0 then
    failwith "bench recovery: breaker reaction p50 is 0 (reaction recording broke)";
  if pooled.v_stamps = 0 then
    failwith "bench recovery: pooled variant never stamped a worker";
  if dp.d_p50 >= df.d_p50 then
    failwith
      (Printf.sprintf "bench recovery: pooled MTTR p50 (%d) >= fresh (%d)" dp.d_p50
         df.d_p50);
  if dp.d_p50 >= 22_300 then
    failwith
      (Printf.sprintf "bench recovery: pooled MTTR p50 (%d) >= fresh-boot baseline 22300"
         dp.d_p50);
  (let oc = open_out "BENCH_recovery.json" in
   Printf.fprintf oc "{\n%s,\n%s,\n  \"simulated\": true\n}\n"
     (variant_json ~label:"fresh" fresh df)
     (variant_json ~label:"pooled" pooled dp);
   close_out oc;
   print_endline "  wrote BENCH_recovery.json");
  print_newline ()
