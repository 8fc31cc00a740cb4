(* Deterministic fault plan: a seeded PRNG plus per-site rules deciding
   when an injection hook fires.  The plan sits below every other library
   so any layer (scheduler, physical memory, channels, engine) can carry
   an optional reference to one; with no plan attached the hooks are a
   single [None] match and cost nothing measurable.

   Everything is deterministic: the PRNG is splitmix64 from a fixed seed,
   op counters advance only while the plan is armed, and every injection
   appends one line to an in-memory trace — two runs with the same seed
   and the same (deterministic) op sequence produce byte-identical
   traces, which is what makes chaos failures replayable. *)

type kind =
  | Enomem          (* frame allocation fails (simulated ENOMEM) *)
  | Prot_fault      (* spurious protection fault on a checked access *)
  | Drop            (* bytes vanish; the direction is torn down *)
  | Truncate        (* one byte gets through, then the direction dies *)
  | Delay of int    (* simulated nanoseconds charged to the clock *)
  | Reset           (* peer reset: both directions torn down *)
  | Crash           (* the running fiber/compartment dies mid-operation *)

exception Injected of string

let kind_to_string = function
  | Enomem -> "enomem"
  | Prot_fault -> "prot_fault"
  | Drop -> "drop"
  | Truncate -> "truncate"
  | Delay ns -> Printf.sprintf "delay:%d" ns
  | Reset -> "reset"
  | Crash -> "crash"

(* The per-site op counter lives inside the rule so the armed-but-not-firing
   hot path costs exactly one hashtable lookup. *)
type rule = {
  prob : float;
  nth : int option;
  kinds : kind array;
  mutable count : int;
}

type t = {
  seed : int;
  mutable state : int64;
  rules : (string, rule) Hashtbl.t;
  mutable injected : int;
  trace_buf : Buffer.t;
  mutable armed : bool;
}

let create ?(seed = 1) () =
  {
    seed;
    state = Int64.of_int seed;
    rules = Hashtbl.create 8;
    injected = 0;
    trace_buf = Buffer.create 256;
    armed = true;
  }

let seed t = t.seed

(* splitmix64: tiny, well-distributed, and identical on every platform. *)
let next64 t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let u01 t =
  (* top 53 bits -> [0,1) *)
  let bits = Int64.shift_right_logical (next64 t) 11 in
  Int64.to_float bits /. 9007199254740992.0

let rule t ~site ?(prob = 0.) ?nth kinds =
  if kinds = [] then invalid_arg "Fault_plan.rule: empty kind list";
  (* Replacing a site's rule keeps its op counter: [nth] computed against
     [site_op_counts] stays meaningful across re-rules. *)
  let count =
    match Hashtbl.find_opt t.rules site with Some r -> r.count | None -> 0
  in
  Hashtbl.replace t.rules site { prob; nth; kinds = Array.of_list kinds; count }

let arm t = t.armed <- true
let disarm t = t.armed <- false
let armed t = t.armed

let site_op_counts t =
  Hashtbl.fold (fun site r acc -> (site, r.count) :: acc) t.rules []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let injections t = t.injected
let trace t = Buffer.contents t.trace_buf

let pick t (kinds : kind array) =
  if Array.length kinds = 1 then kinds.(0)
  else
    let i = Int64.to_int (Int64.rem (Int64.shift_right_logical (next64 t) 1)
                            (Int64.of_int (Array.length kinds))) in
    kinds.(i)

let roll t ~site =
  if not t.armed then None
  else
    match Hashtbl.find_opt t.rules site with
    | None -> None
    | Some r ->
        r.count <- r.count + 1;
        let fire =
          (match r.nth with Some n -> r.count = n | None -> false)
          || (r.prob > 0. && u01 t < r.prob)
        in
        if not fire then None
        else begin
          let k = pick t r.kinds in
          t.injected <- t.injected + 1;
          Buffer.add_string t.trace_buf
            (Printf.sprintf "#%d %s op=%d %s\n" t.injected site r.count (kind_to_string k));
          Some k
        end

(* The common pattern at hook sites that carry a [t option]. *)
let roll_opt plan ~site =
  match plan with None -> None | Some t -> roll t ~site

let fail ~site kind =
  raise (Injected (Printf.sprintf "injected %s at %s" (kind_to_string kind) site))
