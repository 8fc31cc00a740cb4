module Instr = Wedge_sim.Instr

type t = {
  tr : Trace.t;
  bt : Backtrace.t;
}

let create () = { tr = Trace.create (); bt = Backtrace.create () }
let trace t = t.tr

let kind_of_alloc = function
  | Instr.Heap -> (Trace.Heap, None)
  | Instr.Tagged (id, name) -> (Trace.Tagged id, Some name)
  | Instr.Stack fn -> (Trace.Stack_frame fn, None)
  | Instr.Global name -> (Trace.Global name, None)

let instr t =
  {
    Instr.on_access =
      (fun addr len kind ->
        Trace.record t.tr ~addr ~len
          ~mode:(match kind with Instr.Read -> Trace.Read | Instr.Write -> Trace.Write)
          ~bt:(Backtrace.current t.bt));
    on_enter = (fun fn file line -> Backtrace.push t.bt { Backtrace.fn; file; line });
    on_exit = (fun () -> Backtrace.pop t.bt);
    on_alloc =
      (fun base len kind ->
        let kind, label = kind_of_alloc kind in
        ignore (Trace.add_segment t.tr ?label ~base ~len ~kind ~bt:(Backtrace.current t.bt)));
    on_free = (fun base -> Trace.retire_segment t.tr ~base);
  }

(* Pin without tools: each basic block (here: function) pays a one-time
   translation cost when first fetched; afterwards only the cached
   translated code runs, with a small dispatch overhead per execution.
   This reproduces Figure 9's observation that Pin is cheapest for
   workloads that re-execute the same blocks many times. *)
type pin = {
  translated : (string, unit) Hashtbl.t;
  mutable sink : int;
}

let pin () = { translated = Hashtbl.create 64; sink = 0 }

let translate p fn =
  if not (Hashtbl.mem p.translated fn) then begin
    Hashtbl.add p.translated fn ();
    (* Translation burns work proportional to code size. *)
    let acc = ref p.sink in
    for i = 1 to 2_000 do
      acc := (!acc * 31) + i
    done;
    p.sink <- !acc
  end

let pin_instr p =
  {
    Instr.on_access =
      (fun addr len _ ->
        (* Per-access dispatch overhead of translated code: an address
           translation plus bookkeeping, a handful of instructions. *)
        let x = (p.sink lxor addr) * 0x9E3779B1 in
        p.sink <- (x + len) land max_int);
    on_enter =
      (fun fn _ _ ->
        translate p fn;
        p.sink <- p.sink + 1);
    on_exit = (fun () -> ());
    on_alloc = (fun _ _ _ -> ());
    on_free = (fun _ -> ());
  }
