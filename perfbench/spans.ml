(* Tracing for the per-layer run, kept entirely in the benchmark: spans
   the benchmark records around its own client calls, plus a reader for
   the kernel's existing trace ring (armed from outside, exported with
   [Trace.to_chrome_json]).  Nothing here adds trace points to the
   program.

   With one client at a time the shard clock advances only for the
   traced connection, so every span's simulated duration is exact. *)

module Clock = Wedge_sim.Clock

type span = {
  id : int;
  name : string;
  conn : int;
  parent : int;  (** -1 at the top *)
  sim_begin : int;
  mutable sim_end : int;
  host_begin : float;
  mutable host_end : float;
  bytes : int;  (** payload the span moved, when the benchmark knows it *)
}

type t = {
  clock : Clock.t;
  mutable spans : span list;  (** newest first *)
  mutable next_id : int;
  mutable open_ : int list;  (** enclosing span ids, innermost first *)
  mutable conn : int;
}

let create clock = { clock; spans = []; next_id = 0; open_ = []; conn = 0 }
let set_conn t c = t.conn <- c

let within t ?(bytes = 0) ~name f =
  match t with
  | None -> f ()
  | Some t ->
      let s =
        {
          id = t.next_id;
          name;
          conn = t.conn;
          parent = (match t.open_ with p :: _ -> p | [] -> -1);
          sim_begin = Clock.now t.clock;
          sim_end = 0;
          host_begin = Unix.gettimeofday ();
          host_end = 0.;
          bytes;
        }
      in
      t.next_id <- t.next_id + 1;
      t.open_ <- s.id :: t.open_;
      t.spans <- s :: t.spans;
      let close () =
        s.sim_end <- Clock.now t.clock;
        s.host_end <- Unix.gettimeofday ();
        t.open_ <- List.tl t.open_
      in
      Fun.protect ~finally:close f

let spans t = List.rev t.spans
let duration s = s.sim_end - s.sim_begin

(* Mean simulated duration of the spans called [name]; 0 when none. *)
let mean_ns t name =
  let n, total =
    List.fold_left
      (fun (n, total) s -> if s.name = name then (n + 1, total + duration s) else (n, total))
      (0, 0) t.spans
  in
  if n = 0 then 0. else float_of_int total /. float_of_int n

(* Simulated ns per KiB over the spans called [name]. *)
let ns_per_kib t name =
  let ns, bytes =
    List.fold_left
      (fun (ns, b) s -> if s.name = name then (ns + duration s, b + s.bytes) else (ns, b))
      (0, 0) t.spans
  in
  if bytes = 0 then 0. else float_of_int ns /. (float_of_int bytes /. 1024.)

let write t path =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"conn\":%d,\"parent\":%d,\"sim_begin_ns\":%d,\"sim_end_ns\":%d,\"host_begin_s\":%.9f,\"host_end_s\":%.9f,\"bytes\":%d}\n"
            s.id s.name s.conn s.parent s.sim_begin s.sim_end s.host_begin s.host_end
            s.bytes)
        (spans t))

(* ---- the kernel's trace ring ----------------------------------------- *)

type event = { ev_name : string; ph : char; ts : int; tid : int }

(* [Trace.to_chrome_json] writes one event per line:
   {"name":"…","cat":"wedge","ph":"B","ts":12.345,"pid":3,"tid":1…}
   with ts in µs to three decimals, i.e. exact simulated ns. *)
let field line key =
  let k = "\"" ^ key ^ "\":" in
  let kl = String.length k in
  let rec find i =
    if i + kl > String.length line then None
    else if String.sub line i kl = k then Some (i + kl)
    else find (i + 1)
  in
  find 0

let scalar line key =
  match field line key with
  | None -> None
  | Some i ->
      let j = ref i in
      while !j < String.length line && line.[!j] <> ',' && line.[!j] <> '}' do
        incr j
      done;
      Some (String.sub line i (!j - i))

let ns_of_us s =
  match String.split_on_char '.' s with
  | [ us; frac ] when String.length frac = 3 -> (int_of_string us * 1000) + int_of_string frac
  | _ -> failwith ("perfbench: bad trace timestamp " ^ s)

let parse_event line =
  match (field line "name", field line "ph", scalar line "ts", scalar line "tid") with
  | Some q, Some p, Some ts, Some tid ->
      let n = q + 1 in
      let name_end = String.index_from line n '"' in
      Some
        {
          ev_name = String.sub line n (name_end - n);
          ph = line.[p + 1];
          ts = ns_of_us ts;
          tid = int_of_string tid;
        }
  | _ -> None

let parse_chrome json =
  String.split_on_char '\n' json
  |> List.filter_map (fun l ->
         if String.starts_with ~prefix:"{\"name\":\"" l then parse_event l else None)

(* Per-layer times derived from kernel events, summed over connections. *)
type kernel_times = {
  mutable spawn_ns : int;
      (** [sys.sthread_create] instant to the [sthread] span begin *)
  mutable cgate_entry_ns : int;
      (** [cgate:<name>] span self time: minus its nested gate body *)
  mutable session_key_ns : int;  (** [cgate:setup_session_key] durations *)
  mutable session_key_calls : int;
}

let kernel_times () =
  { spawn_ns = 0; cgate_entry_ns = 0; session_key_ns = 0; session_key_calls = 0 }

(* Walk the events of one connection.  Spans nest per fiber ([tid]):
   compartments run to completion inside the fiber that entered them. *)
let absorb kt events =
  let stacks = Hashtbl.create 8 in
  let creating = Hashtbl.create 8 in
  let stack tid = Option.value (Hashtbl.find_opt stacks tid) ~default:[] in
  List.iter
    (fun e ->
      match e.ph with
      | 'i' when e.ev_name = "sys.sthread_create" -> Hashtbl.replace creating e.tid e.ts
      | 'B' ->
          (if e.ev_name = "sthread" then
             match Hashtbl.find_opt creating e.tid with
             | Some t0 ->
                 kt.spawn_ns <- kt.spawn_ns + (e.ts - t0);
                 Hashtbl.remove creating e.tid
             | None -> ());
          (* (name, begin, time covered by children) *)
          Hashtbl.replace stacks e.tid ((e.ev_name, e.ts, ref 0) :: stack e.tid)
      | 'E' -> (
          match stack e.tid with
          | (name, b, children) :: rest when name = e.ev_name ->
              let d = e.ts - b in
              (match rest with (_, _, c) :: _ -> c := !c + d | [] -> ());
              Hashtbl.replace stacks e.tid rest;
              if String.starts_with ~prefix:"cgate:" name then
                kt.cgate_entry_ns <- kt.cgate_entry_ns + (d - !children);
              if name = "cgate:setup_session_key" then begin
                kt.session_key_ns <- kt.session_key_ns + d;
                kt.session_key_calls <- kt.session_key_calls + 1
              end
          | _ -> failwith ("perfbench: unbalanced kernel span " ^ e.ev_name))
      | _ -> ())
    events
