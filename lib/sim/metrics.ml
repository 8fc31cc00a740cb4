(* Metrics registry: the read side of observability.  Writers keep using
   their local counters (Stats tables, record fields); each component
   registers a source closure here, and [snapshot] folds everything into
   one sorted view.  Duplicate keys sum — deliberately, so a quantity
   split across live and reaped carriers (per-process TLB counters vs the
   kernel's reaped totals) reads as one true number. *)

module Fault_plan = Wedge_fault.Fault_plan

type kind = Counter | Gauge

type source = { src_kind : kind; read : unit -> (string * int) list }

type t = { mutable sources : (string * source) list (* name -> source, insertion order *) }

let create () = { sources = [] }

let register t ~name ?(kind = Gauge) read =
  t.sources <- List.remove_assoc name t.sources;
  t.sources <- t.sources @ [ (name, { src_kind = kind; read }) ]

let register_stats t ~name stats =
  register t ~name ~kind:Counter (fun () -> Stats.to_list stats)

let register_fault_plan t plan =
  register t ~name:"fault_plan" ~kind:Counter (fun () ->
      ("fault.injected", Fault_plan.injections plan)
      :: List.map
           (fun (site, n) -> ("fault.ops." ^ site, n))
           (Fault_plan.site_op_counts plan))

(* Merge [(key, v)] pairs: sort, then sum runs of equal keys. *)
let merge pairs =
  let sorted =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      pairs
  in
  let rec squash = function
    | (k1, v1) :: (k2, v2) :: rest when String.equal k1 k2 ->
        squash ((k1, v1 + v2) :: rest)
    | kv :: rest -> kv :: squash rest
    | [] -> []
  in
  squash sorted

let read_kind t want =
  List.concat_map
    (fun (_, s) -> if s.src_kind = want then s.read () else [])
    t.sources

let snapshot t = merge (read_kind t Counter @ read_kind t Gauge)

let get t key =
  match List.assoc_opt key (snapshot t) with Some v -> v | None -> 0

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json t =
  let section pairs =
    String.concat ","
      (List.map
         (fun (k, v) -> Printf.sprintf "\"%s\":%d" (json_escape k) v)
         pairs)
  in
  let counters = merge (read_kind t Counter) in
  let gauges = merge (read_kind t Gauge) in
  Printf.sprintf "{\"counters\":{%s},\"gauges\":{%s}}" (section counters)
    (section gauges)
