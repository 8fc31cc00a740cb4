(* Parked, batched serving vs a polling server across the serve path:
   at least 2x lower per-request cost at 10k connections, on the
   simulated clock AND on this host's wall clock.

   Per (mode, conns) a fresh world holds [conns] connections, each with
   a server fiber blocked awaiting a request; only [active] of them
   carry traffic ([reqs] requests each, one 32-byte response out).  The
   rest stay idle for the whole run — the reactor's case is that they
   must cost nothing.

   Request sizes follow the seeded long-tailed mix from [Bench_util]
   (90% small / 9% medium / 1% large, stratified per connection).  The
   original harness gave every request the identical 8x8-byte shape, so
   every sample cost the same and p50 == p99 — the tail percentile was
   measuring nothing, and a regression confined to large requests would
   have been invisible.  With the mix, p99 lands in the large class and
   the bench asserts p99 > p50 (a non-degenerate tail) on top of the
   performance gates.

     baseline  a Fiber.wait_until poller per connection, then 8x
               fd_read (one syscall trap per chunk)
     reactor   parked on the channel's interest set, then one fd_readv
               (one trap plus batch-op pricing for the whole vector)

   The channels park their own waits in both modes (the clients'
   response reads); only the server loop differs.

   The read phase is timed per request on the simulated clock; the
   window contains no yield, so every sample is exact and unpolluted by
   other fibers.  The aggregate divides the run's whole simulated span
   by requests served — with idle connections charging zero fuel, it
   must not move between 1k and 10k connections (asserted below).  Wall
   clock wraps each Fiber.run once: the baseline pays O(conns) poll
   steps per scheduler rotation while the reactor's parked fibers cost
   nothing, which is a host-time effect the cost model cannot see.

   BENCH_reactor.json carries only simulated integers (ratios x100), so
   it is byte-stable across runs and hosts; wall numbers go to stdout.

   [WEDGE_REACTOR_SMOKE=1] shrinks to 1k connections for CI. *)

module Kernel = Wedge_kernel.Kernel
module Cost_model = Wedge_sim.Cost_model
module Clock = Wedge_sim.Clock
module Fiber = Wedge_sim.Fiber
module Reactor = Wedge_sim.Reactor
module Fd_table = Wedge_kernel.Fd_table
module Chan = Wedge_net.Chan
module W = Wedge_core.Wedge

let smoke =
  match Sys.getenv_opt "WEDGE_REACTOR_SMOKE" with Some "1" -> true | _ -> false

let conn_counts = if smoke then [ 1_000 ] else [ 1_000; 10_000 ]
let active = if smoke then 32 else 64
let reqs = if smoke then 2 else 16
let mix_seed = 17

(* Per-active-connection request shapes: identical across modes and
   conn counts, so comparisons isolate the serve path. *)
let shapes = Bench_util.skewed_classes ~seed:mix_seed ~n:active
let max_req_bytes =
  Array.fold_left (fun m s -> max m (Bench_util.shape_bytes s)) 0 shapes

let resp = Bytes.make 32 'r'

type mode = Polling | Evented

let mode_label = function Polling -> "baseline" | Evented -> "reactor"

type result = {
  r_read_p50 : int;  (* read-phase simulated ns per request *)
  r_read_p99 : int;
  r_agg : int;  (* whole-run simulated ns / requests served *)
  r_wall : float;  (* seconds around Fiber.run, one shot *)
  r_parks : int;
  r_wakeups : int;
  r_signals : int;
}

let measure mode conns =
  let k = Kernel.create ~costs:Cost_model.default () in
  let clock = k.Kernel.clock in
  let app = W.create_app k in
  W.boot app;
  let ctx = W.main_ctx app in
  let tag = W.tag_new ~name:"reactor.bench" ~pages:80 ctx in
  (* Staging runs for the vectored reads: only active servers ever read,
     so only they need one — sized for the largest shape in the mix. *)
  let bufs = Array.init active (fun _ -> W.smalloc ctx max_req_bytes tag) in
  let r =
    match mode with Evented -> Some (Reactor.create ~clock ()) | Polling -> None
  in
  (* Channels themselves are free: every simulated charge in this bench
     comes from the kernel serve path under test, not from the wire. *)
  let eps = Array.init conns (fun _ -> Chan.pair ~clock ~costs:Cost_model.free ()) in
  let samples = ref [] in
  let served = ref 0 in
  let serve idx (_, ep) =
    let fd = W.add_endpoint ctx (Chan.to_endpoint ep) Fd_table.perm_rw in
    let sh = shapes.(idx mod active) in
    let req_bytes = Bench_util.shape_bytes sh in
    let rec loop () =
      (match mode with
      | Polling ->
          Fiber.wait_until ~what:"request bytes" (fun () ->
              Chan.bytes_in_flight ep >= req_bytes || Chan.is_eof ep)
      | Evented -> Chan.wait_rx ~bytes:req_bytes ep);
      if Chan.bytes_in_flight ep >= req_bytes then begin
        let t0 = Clock.now clock in
        (match mode with
        | Polling ->
            for _ = 1 to sh.Bench_util.sh_chunks do
              ignore (W.fd_read ctx fd sh.Bench_util.sh_chunk_bytes)
            done
        | Evented ->
            let base = bufs.(idx) in
            let iovs =
              Array.init sh.Bench_util.sh_chunks (fun i ->
                  ( base + (i * sh.Bench_util.sh_chunk_bytes),
                    sh.Bench_util.sh_chunk_bytes ))
            in
            ignore (W.fd_readv ctx fd iovs));
        samples := (Clock.now clock - t0) :: !samples;
        W.fd_write ctx fd resp;
        incr served;
        loop ()
      end
    in
    loop ()
  in
  let client idx (client_ep, _) =
    let sh = shapes.(idx) in
    let chunk = Bytes.make sh.Bench_util.sh_chunk_bytes 'x' in
    for _ = 1 to reqs do
      for _ = 1 to sh.Bench_util.sh_chunks do
        Chan.write client_ep chunk
      done;
      match Chan.read_exact client_ep (Bytes.length resp) with
      | Some _ -> ()
      | None -> failwith "bench reactor: response lost"
    done;
    Chan.close client_ep
  in
  let total_reqs = active * reqs in
  let on_switch = Option.map Reactor.hook r in
  let on_idle = Option.map Reactor.idle r in
  let t0 = Clock.now clock in
  let (), wall =
    Bench_util.wall_once (fun () ->
        Fiber.run ?on_switch ?on_idle (fun () ->
            Array.iteri (fun i pair -> Fiber.spawn (fun () -> serve i pair)) eps;
            for i = 0 to active - 1 do
              let pair = eps.(i) in
              Fiber.spawn (fun () -> client i pair)
            done;
            Fiber.wait_until ~what:"all requests served" (fun () ->
                !served = total_reqs);
            (* Wake the idle herd to EOF so the run can finish. *)
            for i = active to conns - 1 do
              Chan.close (fst eps.(i))
            done))
  in
  if !served <> total_reqs then failwith "bench reactor: request count mismatch";
  let sorted = List.sort compare !samples in
  let stats =
    match r with
    | Some r -> Reactor.stats r
    | None ->
        {
          Reactor.signals = 0;
          wakeups = 0;
          parks = 0;
          timer_fires = 0;
          idle_advances = 0;
          parked = 0;
          timers = 0;
        }
  in
  {
    r_read_p50 = Bench_util.percentile sorted 0.50;
    r_read_p99 = Bench_util.percentile sorted 0.99;
    r_agg = (Clock.now clock - t0) / total_reqs;
    r_wall = wall;
    r_parks = stats.Reactor.parks;
    r_wakeups = stats.Reactor.wakeups;
    r_signals = stats.Reactor.signals;
  }

let ratio_x100 a b = if b = 0 then 0 else a * 100 / b

let count_shape sh =
  Array.fold_left
    (fun n s -> if Bench_util.shape_label s = Bench_util.shape_label sh then n + 1 else n)
    0 shapes

let conns_json (conns, (base : result), (ev : result)) =
  Printf.sprintf
    "    { \"conns\": %d,\n\
    \      \"baseline\": { \"read_ns_p50\": %d, \"read_ns_p99\": %d, \
     \"agg_ns_per_req\": %d },\n\
    \      \"reactor\": { \"read_ns_p50\": %d, \"read_ns_p99\": %d, \
     \"agg_ns_per_req\": %d,\n\
    \                   \"parks\": %d, \"wakeups\": %d, \"signals\": %d },\n\
    \      \"read_ratio_x100\": %d,\n\
    \      \"agg_ratio_x100\": %d }"
    conns base.r_read_p50 base.r_read_p99 base.r_agg ev.r_read_p50 ev.r_read_p99
    ev.r_agg ev.r_parks ev.r_wakeups ev.r_signals
    (ratio_x100 base.r_read_p50 ev.r_read_p50)
    (ratio_x100 base.r_agg ev.r_agg)

let run () =
  Bench_util.header
    (Printf.sprintf
       "Parked vs polling serve path: %d requests over %s connections"
       (active * reqs)
       (String.concat "/" (List.map string_of_int conn_counts)));
  let rows =
    List.map
      (fun conns -> (conns, measure Polling conns, measure Evented conns))
      conn_counts
  in
  Bench_util.row4 "metric" "baseline" "reactor" "ratio";
  Bench_util.hr ();
  List.iter
    (fun (conns, base, ev) ->
      let tag name = Printf.sprintf "%s @ %dk conns" name (conns / 1000) in
      Bench_util.row4 (tag "read phase p50") (Bench_util.ns base.r_read_p50)
        (Bench_util.ns ev.r_read_p50)
        (Bench_util.ratio
           (float_of_int base.r_read_p50 /. float_of_int ev.r_read_p50));
      Bench_util.row4 (tag "read phase p99") (Bench_util.ns base.r_read_p99)
        (Bench_util.ns ev.r_read_p99)
        (Bench_util.ratio
           (float_of_int base.r_read_p99 /. float_of_int ev.r_read_p99));
      Bench_util.row4 (tag "sim per request") (Bench_util.ns base.r_agg)
        (Bench_util.ns ev.r_agg)
        (Bench_util.ratio (float_of_int base.r_agg /. float_of_int ev.r_agg));
      Bench_util.row4 (tag "wall clock (run)")
        (Printf.sprintf "%.1f ms" (base.r_wall *. 1e3))
        (Printf.sprintf "%.1f ms" (ev.r_wall *. 1e3))
        (Bench_util.ratio (base.r_wall /. ev.r_wall));
      Bench_util.row4 (tag "reactor parks/wakes") "-"
        (Printf.sprintf "%d / %d" ev.r_parks ev.r_wakeups)
        "")
    rows;
  print_endline
    "  (wall clock is this host; everything else is simulated and lands in";
  print_endline "   the byte-stable artifact below)";
  (* The gates.  Simulated ratios are deterministic, so they are hard
     failures; the wall gate applies at the largest scale, where the
     O(conns)-per-rotation poll tax dwarfs host noise. *)
  List.iter
    (fun (conns, (base : result), (ev : result)) ->
      if ratio_x100 base.r_read_p50 ev.r_read_p50 < 200 then
        failwith
          (Printf.sprintf "bench reactor: read ratio < 2x at %d conns (%d vs %d)"
             conns base.r_read_p50 ev.r_read_p50);
      if ratio_x100 base.r_agg ev.r_agg < 200 then
        failwith
          (Printf.sprintf
             "bench reactor: aggregate ratio < 2x at %d conns (%d vs %d)" conns
             base.r_agg ev.r_agg);
      if ev.r_parks = 0 then
        failwith "bench reactor: evented run never parked a fiber";
      (* Non-degenerate tail: under the skewed mix the p99 sample must
         come from a larger class than the p50 sample, in both modes.
         If they are equal the mix (or the percentile rank) broke and
         the tail number is measuring nothing. *)
      if base.r_read_p99 <= base.r_read_p50 || ev.r_read_p99 <= ev.r_read_p50 then
        failwith
          (Printf.sprintf
             "bench reactor: degenerate percentiles at %d conns (baseline \
              p50=%d p99=%d, reactor p50=%d p99=%d)"
             conns base.r_read_p50 base.r_read_p99 ev.r_read_p50 ev.r_read_p99))
    rows;
  (match rows with
  | (_, b1, e1) :: (_ :: _ as rest) ->
      (* Idle connections charge zero simulated cost: per-request numbers
         must not move with the idle herd, in either mode. *)
      List.iter
        (fun (conns, (b : result), (e : result)) ->
          if b.r_agg <> b1.r_agg || e.r_agg <> e1.r_agg then
            failwith
              (Printf.sprintf
                 "bench reactor: idle connections leaked simulated cost at %d \
                  conns"
                 conns))
        rest
  | _ -> ());
  (match List.rev rows with
  | (conns, (base : result), (ev : result)) :: _ when conns >= 10_000 ->
      if base.r_wall < ev.r_wall *. 2.0 then
        failwith
          (Printf.sprintf
             "bench reactor: wall ratio < 2x at %d conns (%.1f ms vs %.1f ms)"
             conns (base.r_wall *. 1e3) (ev.r_wall *. 1e3))
  | _ -> ());
  (let oc = open_out "BENCH_reactor.json" in
   Printf.fprintf oc
     "{\n\
     \  \"requests\": %d,\n\
     \  \"active_conns\": %d,\n\
     \  \"request_mix\": { \"seed\": %d, \"small\": %d, \"medium\": %d, \
      \"large\": %d, \"response_bytes\": %d },\n\
     \  \"scales\": [\n%s\n  ],\n\
     \  \"simulated\": true\n\
      }\n"
     (active * reqs) active mix_seed
     (count_shape Bench_util.shape_small)
     (count_shape Bench_util.shape_medium)
     (count_shape Bench_util.shape_large)
     (Bytes.length resp)
     (String.concat ",\n" (List.map conns_json rows));
   close_out oc;
   print_endline "  wrote BENCH_reactor.json");
  print_newline ()
