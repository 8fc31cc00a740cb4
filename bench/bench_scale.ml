(* bench -- scale: sharded multikernel scale-out under a churn load.

   The tentpole claim: N kernel shards are N parallel machines — each
   with its own physical memory, page tables, fd space, reactor and
   simulated clock — so a hashed connection stream completes in ~1/N
   the simulated makespan of a single kernel, at unchanged per-request
   cost.  The harness pushes a large population of connections (100k
   full, 2k smoke) through the real pop3 server stack behind the
   sharded front door, plus smaller httpd (TLS) and sshd (privsep
   login) sections, for shard counts 1 vs 4 (1 vs 2 in smoke).

   Load model: per shard, [window] concurrent client fibers drain that
   shard's hash-assigned connection list sequentially — bounded
   in-flight churn, like a load generator with a fixed open-connection
   budget.  Each pop3 connection draws its work from the seeded
   long-tailed mix in [Bench_util] (90% STAT / 9% LIST / 1% full
   RETR), so the latency distribution has a real tail and
   p999 >= p99 > p50 is asserted rather than assumed.  The same global
   mix is used at every shard count: identical work, divided N ways.

   While connections churn, a rotation fiber replaces a cluster-wide
   session-key gtag every [total/rotations] connections, deleting the
   previous one from a rotating shard — so the cross-shard TLB
   shootdown protocol runs under full load, and the bench asserts the
   exact count: rotations deletes x (N-1) peers each.

   Latency is sampled on each connection's home-shard clock around the
   whole exchange (connect to quit); per-shard throughput is the
   shard's clock span over its connection count; the cluster makespan
   is the slowest shard's span.  Everything in BENCH_scale.json is a
   simulated integer — byte-stable across runs and hosts.  Wall times
   go to stdout only.

   [WEDGE_SCALE_SMOKE=1] shrinks the population and shard counts for
   CI. *)

module Kernel = Wedge_kernel.Kernel
module Cost_model = Wedge_sim.Cost_model
module Clock = Wedge_sim.Clock
module Fiber = Wedge_sim.Fiber
module Chan = Wedge_net.Chan
module Shard = Wedge_net.Shard
module Service = Wedge_net.Service
module Drbg = Wedge_crypto.Drbg
module Rsa = Wedge_crypto.Rsa
module Dsa = Wedge_crypto.Dsa
module W = Wedge_core.Wedge
module Pop3_client = Wedge_pop3.Pop3_client
module Ssh_client = Wedge_sshd.Ssh_client

let smoke =
  match Sys.getenv_opt "WEDGE_SCALE_SMOKE" with Some "1" -> true | _ -> false

let shard_counts = if smoke then [ 1; 2 ] else [ 1; 4 ]
let max_shards = List.fold_left max 1 shard_counts
let pop3_conns = if smoke then 2_000 else 100_000
let httpd_conns = if smoke then 8 else 64
let sshd_conns = if smoke then 4 else 32
let window = 16
let rotations = if smoke then 8 else 32
let mix_seed = 23
let speedup_floor_x100 = if smoke then 130 else 200

(* The work class of pop3 connection [c], fixed before sharding so every
   shard count serves the identical population. *)
let pop3_mix = lazy (Bench_util.skewed_classes ~seed:mix_seed ~n:pop3_conns)

(* ------------------------------------------------------------------ *)
(* Generic churn driver                                                *)

type per_shard = { ps_sid : int; ps_conns : int; ps_span : int }

type row = {
  rw_shards : int;
  rw_conns : int;
  rw_p50 : int;
  rw_p99 : int;
  rw_p999 : int;
  rw_per_shard : per_shard list;
  rw_makespan : int;
  rw_xshoot : int;
}

(* Round-robin a connection list into at most [w] slices: the bounded
   in-flight window, deterministic in list order. *)
let slices w l =
  let n = min w (max 1 (List.length l)) in
  let buckets = Array.make n [] in
  List.iteri (fun i c -> buckets.(i mod n) <- c :: buckets.(i mod n)) l;
  Array.to_list (Array.map List.rev buckets)

let rotation_fiber fab ~served ~total ~done_ =
  Fiber.spawn (fun () ->
      let step = max 1 (total / rotations) in
      let prev = ref None in
      for r = 1 to rotations do
        Fiber.wait_until ~what:"scale rotation point" (fun () ->
            !served >= min total (r * step));
        let g = Shard.gtag_new ~name:(Printf.sprintf "sess-%d" r) ~pages:1 fab in
        (match !prev with
        | Some old when Shard.gtag_live old ->
            Shard.gtag_delete fab ~sid:(r mod Shard.n fab) old
        | _ -> ());
        prev := Some g
      done;
      (match !prev with
      | Some old when Shard.gtag_live old -> Shard.gtag_delete fab ~sid:0 old
      | _ -> ());
      done_ := true)

(* Run [total] connections through the front door: hash-assign each to
   its home shard, churn them through [window] client fibers per shard,
   rotate session gtags when [rotate], return the latency/throughput
   row. *)
let drive ~fab ~front ~serve ~run_conn ~total ~rotate =
  let n = Shard.n fab in
  let per_shard_conns = Array.make n [] in
  for c = total - 1 downto 0 do
    let sid = Shard.route fab ~key:(Printf.sprintf "conn-%06d" c) in
    per_shard_conns.(sid) <- c :: per_shard_conns.(sid)
  done;
  let samples = Array.make n [] in
  let served = ref 0 in
  let rot_done = ref (not rotate) in
  let spans = Array.make n 0 in
  Fiber.run ~on_idle:(Shard.idle fab) (fun () ->
      Shard.start fab;
      serve ();
      let t0 =
        Array.map
          (fun (s : Shard.shard) -> Clock.now s.Shard.kernel.Kernel.clock)
          (Shard.shards fab)
      in
      if rotate then rotation_fiber fab ~served ~total ~done_:rot_done;
      let remaining = ref 0 in
      Array.iteri
        (fun sid conns ->
          let clock = (Shard.shard fab sid).Shard.kernel.Kernel.clock in
          List.iter
            (fun slice ->
              incr remaining;
              Fiber.spawn (fun () ->
                  List.iter
                    (fun c ->
                      let s0 = Clock.now clock in
                      run_conn ~sid c;
                      samples.(sid) <- (Clock.now clock - s0) :: samples.(sid);
                      incr served)
                    slice;
                  decr remaining))
            (slices window conns))
        per_shard_conns;
      Fiber.wait_until ~what:"scale churn drained" (fun () ->
          !remaining = 0 && !served = total && !rot_done);
      Array.iteri
        (fun sid (s : Shard.shard) ->
          spans.(sid) <- Clock.now s.Shard.kernel.Kernel.clock - t0.(sid))
        (Shard.shards fab);
      Shard.front_drain front;
      Shard.stop fab);
  let all = List.sort compare (List.concat (Array.to_list samples)) in
  {
    rw_shards = n;
    rw_conns = total;
    rw_p50 = Bench_util.percentile all 0.50;
    rw_p99 = Bench_util.percentile all 0.99;
    rw_p999 = Bench_util.percentile all 0.999;
    rw_per_shard =
      List.init n (fun sid ->
          {
            ps_sid = sid;
            ps_conns = List.length per_shard_conns.(sid);
            ps_span = spans.(sid);
          });
    rw_makespan = Array.fold_left max 0 spans;
    rw_xshoot = Shard.cross_shard_shootdowns fab;
  }

(* ------------------------------------------------------------------ *)
(* Service sections                                                    *)

let pop3_section n_shards =
  let worlds =
    Array.init n_shards (fun i ->
        let k = Kernel.create ~costs:Cost_model.default ~shard:i () in
        Wedge_pop3.Pop3_env.install k Wedge_pop3.Pop3_env.default_users;
        let app = W.create_app ~image_pages:60 k in
        W.boot app;
        (k, app))
  in
  let fab = Shard.create worlds in
  let front =
    Shard.front ~costs:Cost_model.default ~backlog:64 ~max_conns:(2 * window) fab
  in
  let mains = Array.map (fun (_, app) -> W.main_ctx app) worlds in
  let mix = Lazy.force pop3_mix in
  let run_conn ~sid c =
    let cl = Pop3_client.connect (Chan.connect (Shard.front_listener front sid)) in
    let user = if c land 1 = 0 then "alice" else "bob" in
    let password = if c land 1 = 0 then "wonderland" else "builder" in
    if not (Pop3_client.login cl ~user ~password) then
      failwith "bench scale: pop3 login failed";
    (match Bench_util.shape_label mix.(c) with
    | "small" -> if Pop3_client.stat cl = None then failwith "bench scale: STAT failed"
    | "medium" ->
        if Pop3_client.list_mails cl = None then failwith "bench scale: LIST failed"
    | _ -> (
        match Pop3_client.list_mails cl with
        | Some l ->
            List.iter
              (fun (i, _) ->
                if Pop3_client.retr cl i = None then failwith "bench scale: RETR failed")
              l
        | None -> failwith "bench scale: LIST failed"));
    Pop3_client.quit cl
  in
  drive ~fab ~front
    ~serve:(fun () -> Service.serve_sharded Wedge_pop3.Pop3_wedge.service mains front)
    ~run_conn ~total:pop3_conns ~rotate:true

let httpd_section n_shards =
  let envs =
    Array.init n_shards (fun i ->
        let k = Kernel.create ~costs:Cost_model.default ~shard:i () in
        Wedge_httpd.Httpd_env.install ~image_pages:60 ~seed:(100 + i) k)
  in
  let fab =
    Shard.create
      (Array.map
         (fun e -> (W.kernel e.Wedge_httpd.Httpd_env.app, e.Wedge_httpd.Httpd_env.app))
         envs)
  in
  let front =
    Shard.front ~costs:Cost_model.default ~backlog:64 ~max_conns:(2 * window) fab
  in
  let run_conn ~sid c =
    let ep = Chan.connect (Shard.front_listener front sid) in
    match
      Wedge_httpd.Https_client.get
        ~rng:(Drbg.create ~seed:(1_000 + c))
        ~pinned:envs.(sid).Wedge_httpd.Httpd_env.priv.Rsa.pub ~path:"/index.html" ep
    with
    | { Wedge_httpd.Https_client.response = Some r; _ }
      when r.Wedge_httpd.Http.status = 200 ->
        ()
    | _ -> failwith "bench scale: https get failed"
  in
  drive ~fab ~front
    ~serve:(fun () -> Service.serve_sharded Wedge_httpd.Httpd_simple.service envs front)
    ~run_conn ~total:httpd_conns ~rotate:false

let sshd_section n_shards =
  let envs =
    Array.init n_shards (fun i ->
        let k = Kernel.create ~costs:Cost_model.default ~shard:i () in
        Wedge_sshd.Sshd_env.install ~image_pages:40 ~seed:(200 + i) k)
  in
  let fab =
    Shard.create
      (Array.map
         (fun e -> (W.kernel e.Wedge_sshd.Sshd_env.app, e.Wedge_sshd.Sshd_env.app))
         envs)
  in
  let front =
    Shard.front ~costs:Cost_model.default ~backlog:64 ~max_conns:(2 * window) fab
  in
  let run_conn ~sid c =
    let ep = Chan.connect (Shard.front_listener front sid) in
    match
      Ssh_client.login
        ~rng:(Drbg.create ~seed:(2_000 + c))
        ~pinned_rsa:envs.(sid).Wedge_sshd.Sshd_env.host_rsa.Rsa.pub
        ~pinned_dsa:envs.(sid).Wedge_sshd.Sshd_env.host_dsa.Dsa.pub ~user:"alice"
        (Ssh_client.Password "wonderland") ep
    with
    | Ok conn ->
        if Ssh_client.exec conn "shell" = None then
          failwith "bench scale: ssh exec failed";
        Ssh_client.close conn
    | Error e -> failwith ("bench scale: ssh login failed: " ^ e)
  in
  drive ~fab ~front
    ~serve:(fun () -> Service.serve_sharded Wedge_sshd.Sshd_privsep.service envs front)
    ~run_conn ~total:sshd_conns ~rotate:false

(* ------------------------------------------------------------------ *)
(* Report, gates, artifact                                             *)

let per_shard_json ps =
  Printf.sprintf
    "        { \"sid\": %d, \"conns\": %d, \"span_ns\": %d, \"ns_per_conn\": %d }"
    ps.ps_sid ps.ps_conns ps.ps_span
    (if ps.ps_conns = 0 then 0 else ps.ps_span / ps.ps_conns)

let row_json service r =
  Printf.sprintf
    "    { \"service\": %S, \"shards\": %d, \"conns\": %d,\n\
    \      \"latency_ns\": { \"p50\": %d, \"p99\": %d, \"p999\": %d },\n\
    \      \"per_shard\": [\n%s\n      ],\n\
    \      \"makespan_ns\": %d, \"cross_shard_shootdowns\": %d }"
    service r.rw_shards r.rw_conns r.rw_p50 r.rw_p99 r.rw_p999
    (String.concat ",\n" (List.map per_shard_json r.rw_per_shard))
    r.rw_makespan r.rw_xshoot

(* Rows come in [shard_counts] order; speedup is first (1 shard) over
   last (max shards). *)
let speedup_x100 rows =
  match (rows, List.rev rows) with
  | r1 :: _, rn :: _ when rn.rw_makespan > 0 -> r1.rw_makespan * 100 / rn.rw_makespan
  | _ -> 0

let report service rows =
  List.iter
    (fun r ->
      let tag name = Printf.sprintf "%s %s @%d shard(s)" service name r.rw_shards in
      Bench_util.row3
        (tag "p50/p99/p999")
        (Printf.sprintf "%s / %s" (Bench_util.us r.rw_p50) (Bench_util.us r.rw_p99))
        (Bench_util.us r.rw_p999);
      Bench_util.row3 (tag "makespan") (Bench_util.ms r.rw_makespan)
        (Printf.sprintf "xshoot=%d" r.rw_xshoot))
    rows;
  Bench_util.row3
    (Printf.sprintf "%s speedup (%d vs 1 shards)" service max_shards)
    (Bench_util.ratio (float_of_int (speedup_x100 rows) /. 100.))
    ""

let run () =
  Bench_util.header
    (Printf.sprintf
       "Sharded scale-out: %d pop3 + %d httpd + %d sshd conns over %s shards"
       pop3_conns httpd_conns sshd_conns
       (String.concat "/" (List.map string_of_int shard_counts)));
  let section name f =
    List.map
      (fun n ->
        let r, wall = Bench_util.wall_once (fun () -> f n) in
        Printf.printf "  [%s @ %d shard(s): %.1f s wall]\n%!" name n wall;
        r)
      shard_counts
  in
  let pop3_rows = section "pop3" pop3_section in
  let httpd_rows = section "httpd" httpd_section in
  let sshd_rows = section "sshd" sshd_section in
  Bench_util.hr ();
  report "pop3" pop3_rows;
  report "httpd" httpd_rows;
  report "sshd" sshd_rows;
  print_endline
    "  (wall times are this host; the artifact holds simulated integers only)";
  List.iter
    (fun (service, rows) ->
      let s = speedup_x100 rows in
      if s < speedup_floor_x100 then
        failwith
          (Printf.sprintf
             "bench scale: %s speedup %d.%02dx below floor at %d shards" service
             (s / 100) (s mod 100) max_shards))
    [ ("pop3", pop3_rows); ("httpd", httpd_rows); ("sshd", sshd_rows) ];
  List.iter
    (fun r ->
      if not (r.rw_p50 < r.rw_p99 && r.rw_p99 <= r.rw_p999) then
        failwith
          (Printf.sprintf
             "bench scale: degenerate pop3 percentiles at %d shards (p50=%d p99=%d \
              p999=%d)"
             r.rw_shards r.rw_p50 r.rw_p99 r.rw_p999);
      let expected = rotations * (r.rw_shards - 1) in
      if r.rw_xshoot <> expected then
        failwith
          (Printf.sprintf
             "bench scale: %d cross-shard shootdowns at %d shards, expected %d"
             r.rw_xshoot r.rw_shards expected))
    pop3_rows;
  (let oc = open_out "BENCH_scale.json" in
   Printf.fprintf oc
     "{\n\
     \  \"total_conns\": %d,\n\
     \  \"window_per_shard\": %d,\n\
     \  \"rotations\": %d,\n\
     \  \"mix\": { \"seed\": %d, \"small\": \"STAT\", \"medium\": \"LIST\", \
      \"large\": \"RETR*\" },\n\
     \  \"sections\": [\n%s\n  ],\n\
     \  \"speedup_x100\": { \"pop3\": %d, \"httpd\": %d, \"sshd\": %d },\n\
     \  \"simulated\": true\n\
      }\n"
     (pop3_conns + httpd_conns + sshd_conns)
     window rotations mix_seed
     (String.concat ",\n"
        (List.map (row_json "pop3") pop3_rows
        @ List.map (row_json "httpd") httpd_rows
        @ List.map (row_json "sshd") sshd_rows))
     (speedup_x100 pop3_rows) (speedup_x100 httpd_rows) (speedup_x100 sshd_rows);
   close_out oc;
   print_endline "  wrote BENCH_scale.json");
  print_newline ()
