(* One simulated world per measured run: a kernel shard behind
   [Shard.front] (one shard, so a reactor-mode [Guard] is in the path),
   the partitioned server started through its public [serve_sharded]
   entry point, and [Plan.clients] closed-loop client fibers on the same
   scheduler.  Latency is taken on the shard clock from connect to
   close. *)

module Kernel = Wedge_kernel.Kernel
module Physmem = Wedge_kernel.Physmem
module Process = Wedge_kernel.Process
module Vm = Wedge_kernel.Vm
module Clock = Wedge_sim.Clock
module Cost_model = Wedge_sim.Cost_model
module Fiber = Wedge_sim.Fiber
module Reactor = Wedge_sim.Reactor
module Stats = Wedge_sim.Stats
module Shard = Wedge_net.Shard
module Guard = Wedge_net.Guard
module Engine = Wedge_core.Engine
module Tag_cache = Wedge_mem.Tag_cache
module W = Wedge_core.Wedge
module Drbg = Wedge_crypto.Drbg
module Rsa = Wedge_crypto.Rsa
module Handshake = Wedge_tls.Handshake
module Pop3_env = Wedge_pop3.Pop3_env
module Httpd_env = Wedge_httpd.Httpd_env

type t = {
  kernel : Kernel.t;
  app : Engine.app;
  fab : Shard.t;
  front : Shard.front;
  serve : unit -> unit;
  users : Pop3_env.user array;
  https : Httpd_env.t option;
  sessions : Handshake.client_session option array;  (** per client *)
  keys : string array;  (** per-client front-door routing keys *)
  io : Clients.io_counts;
  mutable resumed : int;  (** connections that resumed a TLS session *)
  mutable switches : int;
  mutable frames_peak : int;
}

let build workload ~seed ~users =
  let kernel = Kernel.create ~costs:Cost_model.default () in
  let app, serve, https =
    match workload with
    | Plan.Pop3_churn | Plan.Pop3_bulk ->
        Pop3_env.install kernel (Array.to_list users);
        (* a small daemon image, as [bench -- scale] serves pop3 from *)
        let app = W.create_app ~image_pages:60 kernel in
        W.boot app;
        (app, (fun front -> Wedge_pop3.Pop3_wedge.serve_sharded [| W.main_ctx app |] front), None)
    | Plan.Https_mix ->
        let env = Httpd_env.install ~seed:(Plan.env_seed ~seed) kernel in
        ( env.Httpd_env.app,
          (fun front ->
            Wedge_httpd.Httpd_simple.serve_sharded ~max_request_bytes:4096 [| env |] front),
          Some env )
  in
  let fab = Shard.create [| (kernel, app) |] in
  let front =
    Shard.front ~costs:Cost_model.default ~backlog:64 ~max_conns:(2 * Plan.clients) fab
  in
  {
    kernel;
    app;
    fab;
    front;
    serve = (fun () -> serve front);
    users;
    https;
    sessions = Array.make Plan.clients None;
    keys = Array.init Plan.clients (fun c -> "client-" ^ string_of_int c);
    io = Clients.io_counts ();
    resumed = 0;
    switches = 0;
    frames_peak = 0;
  }

let clock w = w.kernel.Kernel.clock
let guard w = Shard.front_guard w.front 0

let conn_span = function
  | Plan.Pop3 _ -> "pop3.conn"
  | Plan.Https { full = true; _ } -> "httpd.full"
  | Plan.Https { full = false; _ } -> "httpd.resumed"

(* One connection, connect to close, on the shard clock.  Every way it
   can go wrong — refused, shed, cut, wrong bytes, any exception — is an
   [Error], never a crash of the run. *)
let attempt ?spans w ~client conn =
  let clock = clock w in
  let t0 = Clock.now clock in
  match
    Spans.within spans ~name:(conn_span conn) (fun () ->
        let _sid, ep = Shard.front_connect w.front ~key:w.keys.(client) in
        match conn with
        | Plan.Pop3 { user; op } -> Clients.pop3 ?spans w.io w.users.(user) op ep
        | Plan.Https { full; rng_seed } ->
            let env = Option.get w.https in
            let resume = if full then None else w.sessions.(client) in
            if (not full) && resume = None then Clients.wrong "https: no session to resume";
            w.sessions.(client) <-
              Some
                (Clients.https ?spans w.io ~pinned:env.Httpd_env.priv.Rsa.pub
                   ~rng:(Drbg.create ~seed:rng_seed) ?resume
                   ~expect_body:Httpd_env.index_body ep);
            if not full then w.resumed <- w.resumed + 1)
  with
  | () -> Ok (Clock.now clock - t0)
  | exception e -> Error (Printexc.to_string e)

(* Run every client's connections, one fiber per client, and return when
   all are done. *)
let round ?spans w plan sample =
  let main = Fiber.fiber_id () in
  let remaining = ref (Array.length plan) in
  Array.iteri
    (fun client conns ->
      Fiber.spawn (fun () ->
          Array.iter
            (fun conn ->
              Sample.record sample (attempt ?spans w ~client conn))
            conns;
          decr remaining;
          if !remaining = 0 then Fiber.unpark main))
    plan;
  if !remaining > 0 then Fiber.park ~what:"perfbench round"

(* Every admitted connection has released its guard slot, i.e. the
   server finished its per-connection teardown. *)
let quiesce w =
  Fiber.wait_until ~what:"perfbench quiesce" (fun () -> Guard.active (guard w) = 0)

(* Serve, run [body] against the live server, then drain the front door
   and stop the fabric so the scheduler ends with no parked fibers. *)
let session w body =
  Fiber.run
    ~on_switch:(fun () ->
      w.switches <- w.switches + 1;
      let f = Physmem.frames_in_use w.kernel.Kernel.pm in
      if f > w.frames_peak then w.frames_peak <- f;
      Shard.hook w.fab ())
    ~on_idle:(Shard.idle w.fab)
    (fun () ->
      Shard.start w.fab;
      w.serve ();
      body ();
      Shard.front_drain w.front;
      Shard.stop w.fab)

(* ---- counters --------------------------------------------------------- *)

(* Every counter the layers expose, flat: kernel stats under "kernel.",
   then TLB totals, guard, reactor, scheduler, client and GC counts, and
   the shard clock.  Runs subtract and add these lists. *)
type counters = (string * int) list

(* TLB counters: reaped processes fold theirs into the stats table; live
   ones still hold their own. *)
let live_tlb w f =
  let n = ref 0 in
  Kernel.iter_processes w.kernel (fun p -> n := !n + f p.Process.vm);
  !n

let counters w : counters =
  let k = w.kernel.Kernel.stats in
  let g = Guard.stats (guard w) in
  let r = Reactor.stats (Shard.shard w.fab 0).Shard.reactor in
  let gc = Gc.quick_stat () in
  List.map (fun (key, v) -> ("kernel." ^ key, v)) (Stats.to_list k)
  @ [
      ("tlb.hits", Stats.get k "tlb.hit" + live_tlb w Vm.tlb_hits);
      ("tlb.misses", Stats.get k "tlb.miss" + live_tlb w Vm.tlb_misses);
      ("tlb.shootdowns", Stats.get k "tlb.shootdown" + live_tlb w Vm.tlb_shootdowns);
      ("guard.admitted", g.Guard.s_admitted);
      ("guard.rejected", g.s_rejected_busy + g.s_rejected_draining + g.s_shed);
      ("guard.timed_out", g.s_timed_out);
      ("reactor.parks", r.Reactor.parks);
      ("reactor.wakeups", r.Reactor.wakeups);
      ("sched.switches", w.switches);
      ("client.bytes", w.io.Clients.bytes);
      ("client.calls", w.io.Clients.calls);
      ("client.resumed", w.resumed);
      ("gc.minor_collections", gc.Gc.minor_collections);
      ("gc.major_collections", gc.Gc.major_collections);
      ("sim.ns", Clock.now (clock w));
    ]

let get (c : counters) key = Option.value (List.assoc_opt key c) ~default:0

(* Counters only grow, so [after] names every key [before] does. *)
let diff ~before ~after : counters = List.map (fun (k, v) -> (k, v - get before k)) after

let add (a : counters) (b : counters) : counters =
  List.map (fun (k, v) -> (k, v + get b k)) a
  @ List.filter (fun (k, _) -> not (List.mem_assoc k a)) b

let sum_prefix (c : counters) prefix =
  List.fold_left (fun acc (k, v) -> if String.starts_with ~prefix k then acc + v else acc) 0 c

(* Minor words from [Gc.minor_words], which is exact at any point;
   [Gc.counters]' minor figure only moves at minor collections. *)
let alloc_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. (major -. promoted)

(* Frames held outside the tag cache.  The cache keeps deleted tags'
   frames for reuse and grows to the peak number of concurrent
   connections, so it is set aside when checking for leaks. *)
let frames_outside_cache w =
  let cached =
    List.fold_left
      (fun acc e -> acc + List.length e.Tag_cache.frames)
      0
      (Tag_cache.entries w.app.Engine.tag_cache)
  in
  Physmem.frames_in_use w.kernel.Kernel.pm - cached

type residue = { live_processes : int; frames : int }

let residue w =
  { live_processes = Kernel.live_processes w.kernel; frames = frames_outside_cache w }
