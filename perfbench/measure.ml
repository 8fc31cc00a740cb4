(* The two kinds of run.

   [closed_loop]: the end-to-end run.  First [setups] timed throw-away
   set-ups (a world build plus its warm-up pass of one connection per
   client), each from a freshly collected heap.  Then [epochs] measured
   epochs: each builds and warms a fresh world (untimed: its heap was
   sized by the world before it) and serves its own [epoch_rounds] seeded
   rounds, each client running its share of every round back to back.
   Every simulated figure and the words allocated are a function of the
   seed alone, never of host speed.  While [seconds] of host time remain
   after that, the measured epochs are replayed on fresh worlds, and each
   replay must reproduce its epoch's latencies, counters and allocation
   exactly; replays add only to the host CPU figure.  Epochs bound the
   host heap: the master keeps a closed descriptor (and the channel
   behind it) and the callgates of every connection it served, so one
   world's memory grows with its connection count.

   [one_client]: the per-layer run.  One client, one connection at a
   time, each followed by the server's teardown, so the shard clock
   advances only for that connection.  Run twice on identical fresh
   worlds, untraced and traced, the two must agree on every simulated
   number: tracing charges nothing to the simulated clock. *)

module Trace = Wedge_sim.Trace

type closed = {
  setups_s : float list;
      (** each throw-away set-up's CPU seconds, rescaled by the calibration
          loop timed before it *)
  warmup : Sample.t;
  sample : Sample.t;  (** the measured epochs *)
  replay : Sample.t;  (** the replays *)
  epochs : int;
  rounds : int;  (** per epoch *)
  replays : int;
  counters : World.counters;  (** summed over the measured epochs *)
  alloc_words : float;  (** host words allocated serving them *)
  batch_cpu_s : float;  (** fastest epoch's CPU seconds per connection *)
  frames_peak : int;
  heap_peak_words : int;  (** [Gc.top_heap_words] after the measured epochs *)
  problems : string list;
      (** state a drained world failed to give back, and replays that
          differed from their epoch *)
}

(* Host speed changes by up to 1.6x over minutes on a shared VM, and a
   set-up (allocation, page zeroing, copies, collection) slows with it.
   This fixed loop of stdlib code does the same kind of work and belongs
   to the benchmark, so no change to the program moves it.  Timed before
   every set-up, it rescales the set-up to a host that runs the loop in
   [reference_calibration_s].  Over eight runs per workload the rescaled
   figure moved at most 1.14x, where raw set-up time had moved 1.65x. *)
let reference_calibration_s = 0.01

let calibration_s () =
  let t0 = Sys.time () in
  let pages = Array.init 1500 (fun i -> Bytes.make 4096 (Char.chr (i land 255))) in
  for _ = 1 to 3 do
    for i = 1 to Array.length pages - 1 do
      Bytes.blit pages.(i - 1) 0 pages.(i) 0 4096
    done
  done;
  let l = ref [] in
  for i = 0 to 100_000 do
    l := (i, string_of_int i) :: !l
  done;
  ignore (Sys.opaque_identity (pages, !l));
  Sys.time () -. t0

(* One measured epoch, as its replays must reproduce it. *)
type epoch = {
  latencies : int list;
  counters : World.counters;
  alloc_words : float;
  cpu_s : float;
  frames_peak : int;
}

(* What a replay changed, if anything.  The GC's counters are left out:
   collections fall where the heap the last world left puts them. *)
let differs a b =
  let sim c = List.filter (fun (k, _) -> not (String.starts_with ~prefix:"gc." k)) c in
  if a.latencies <> b.latencies then Some "latencies"
  else if sim a.counters <> sim b.counters then Some "counters"
  else if a.alloc_words <> b.alloc_words then
    Some (Printf.sprintf "words allocated (%.0f, then %.0f)" a.alloc_words b.alloc_words)
  else None

(* Defaults: 2 epochs of 8 rounds, i.e. 16,384 pop3_churn, 4,096
   pop3_bulk or 4,096 https_mix connections, each well over the 1,001
   that p99 needs.  Tests shrink them and [n_per_client]. *)
let closed_loop ?n_per_client ?(epochs = 2) ?(epoch_rounds = 8) ?(setups = 12) workload ~seed
    ~users ~seconds =
  let n_per_client = Option.value n_per_client ~default:(Plan.per_client workload) in
  let conns = Plan.clients * n_per_client * epoch_rounds in
  let warmup = Sample.create () and problems = ref [] in
  (* Build and warm a world, run [body] against it, drain it, and check
     that the drain gave back what the warm world held. *)
  let in_world body =
    let w = World.build workload ~seed ~users in
    let before = ref (World.residue w) and result = ref None in
    World.session w (fun () ->
        World.round w (Plan.warmup workload ~seed) warmup;
        World.quiesce w;
        before := World.residue w;
        result := Some (body w));
    let after = World.residue w in
    if after.World.live_processes <> !before.World.live_processes then
      problems :=
        Printf.sprintf "live processes %d after drain, %d before" after.World.live_processes
          !before.World.live_processes
        :: !problems;
    if after.World.frames <> !before.World.frames then
      problems :=
        Printf.sprintf "frames in use outside the tag cache %d after drain, %d before"
          after.World.frames !before.World.frames
        :: !problems;
    Option.get !result
  in
  (* every set-up starts from a collected heap, the last world's garbage
     gone, and is timed in CPU seconds, which leave out the time the host
     keeps the process descheduled *)
  let setup () =
    Gc.full_major ();
    let calibration = calibration_s () in
    Gc.full_major ();
    let t0 = Sys.time () in
    in_world (fun _ -> (Sys.time () -. t0) /. calibration *. reference_calibration_s)
  in
  let plan e =
    let rounds =
      List.init epoch_rounds (fun r ->
          Plan.round workload ~seed ~n_per_client ((e * epoch_rounds) + r))
    in
    Array.init Plan.clients (fun c -> Array.concat (List.map (fun r -> r.(c)) rounds))
  in
  let plans = Array.init epochs plan in
  let run_epoch e sample =
    Gc.full_major ();
    in_world (fun w ->
        w.World.frames_peak <- 0;
        let s = Sample.create () in
        let c0 = World.counters w in
        let a0 = World.alloc_words () and cpu0 = Sys.time () in
        World.round w plans.(e) s;
        let cpu_s = Sys.time () -. cpu0 in
        let alloc_words = World.alloc_words () -. a0 in
        Sample.add sample s;
        {
          latencies = s.Sample.latencies;
          counters = World.diff ~before:c0 ~after:(World.counters w);
          alloc_words;
          cpu_s;
          frames_peak = w.World.frames_peak;
        })
  in
  let setups_s = List.init setups (fun _ -> setup ()) in
  let deadline = Unix.gettimeofday () +. seconds in
  let sample = Sample.create () and replay = Sample.create () in
  let measured = Array.init epochs (fun e -> run_epoch e sample) in
  let heap_peak_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let best = ref (Array.fold_left (fun b r -> Float.min b r.cpu_s) infinity measured) in
  let replays = ref 0 in
  while Unix.gettimeofday () < deadline do
    let e = !replays mod epochs in
    let r = run_epoch e replay in
    Option.iter
      (fun what -> problems := Printf.sprintf "replay of epoch %d changed its %s" e what :: !problems)
      (differs measured.(e) r);
    best := Float.min !best r.cpu_s;
    incr replays
  done;
  {
    setups_s;
    warmup;
    sample;
    replay;
    epochs;
    rounds = epoch_rounds;
    replays = !replays;
    counters = Array.fold_left (fun acc r -> World.add acc r.counters) [] measured;
    alloc_words = Array.fold_left (fun acc r -> acc +. r.alloc_words) 0. measured;
    batch_cpu_s = !best /. float_of_int conns;
    frames_peak = Array.fold_left (fun acc r -> max acc r.frames_peak) 0 measured;
    heap_peak_words;
    problems = List.rev !problems;
  }

type single = {
  s_sample : Sample.t;  (** the warm-up connection, then the plan *)
  s_conns : int;  (** connections in the plan *)
  s_counters : World.counters;  (** over the measured connections *)
  s_alloc_words : float;  (** host words allocated inside the connections *)
  s_spans : Spans.t option;
  s_kernel : Spans.kernel_times;
  s_dropped : int;  (** kernel trace events lost to ring wrap-around *)
}

(* Per-connection ring capacity: the ring is exported and cleared after
   every connection, so it only has to hold one. *)
let trace_capacity = 1 lsl 18

(* The per-layer plan: round 0 at [n_per_client] connections for each of
   the [Plan.clients] streams, all served by a single client. *)
let one_client workload ~seed ~users ~n_per_client ~traced =
  let w = World.build workload ~seed ~users in
  let tr = w.World.kernel.Wedge_kernel.Kernel.trace in
  let spans = if traced then Some (Spans.create (World.clock w)) else None in
  let kt = Spans.kernel_times () in
  let sample = Sample.create () in
  let alloc = ref 0. and dropped = ref 0 and counters = ref [] in
  let plan = Array.concat (Array.to_list (Plan.round workload ~seed ~n_per_client 0)) in
  World.session w (fun () ->
      World.round w [| (Plan.warmup workload ~seed).(0) |] sample;
      World.quiesce w;
      let c0 = World.counters w in
      if traced then Trace.arm ~capacity:trace_capacity tr;
      Array.iteri
        (fun i conn ->
          Option.iter (fun s -> Spans.set_conn s i) spans;
          let a0 = World.alloc_words () in
          World.round ?spans w [| [| conn |] |] sample;
          World.quiesce w;
          alloc := !alloc +. (World.alloc_words () -. a0);
          if traced then begin
            dropped := !dropped + Trace.dropped tr;
            Spans.absorb kt (Spans.parse_chrome (Trace.to_chrome_json tr));
            Trace.clear tr
          end)
        plan;
      Trace.disarm tr;
      counters := World.diff ~before:c0 ~after:(World.counters w));
  {
    s_sample = sample;
    s_conns = Array.length plan;
    s_counters = !counters;
    s_alloc_words = !alloc;
    s_spans = spans;
    s_kernel = kt;
    s_dropped = !dropped;
  }
