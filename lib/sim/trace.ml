(* Clock-stamped structured tracing.

   The ring buffer is a struct-of-arrays: one preallocated array per event
   field, indexed by slot.  Recording an event writes five scalars and a
   string pointer — no per-event allocation, so instrumentation can live
   permanently in hot paths.  When disabled, every recording function is
   one load + one branch. *)

type t = {
  clock : Clock.t;
  is_null : bool;
  mutable enabled : bool;
  mutable cap : int; (* requested capacity; buffers sized on arm *)
  mutable ev_name : string array;
  mutable ev_ph : Bytes.t; (* Chrome phase per slot: 'B' 'E' 'i' 'C' *)
  mutable ev_ts : int array; (* simulated ns *)
  mutable ev_pid : int array;
  mutable ev_tid : int array; (* scheduler fiber id *)
  mutable ev_val : int array; (* counter value; [no_value] when absent *)
  mutable head : int; (* next slot to write *)
  mutable total : int; (* events ever recorded since last clear *)
}

let no_value = min_int
let default_capacity = 65536

let create ?(capacity = default_capacity) ~clock () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity <= 0";
  {
    clock;
    is_null = false;
    enabled = false;
    cap = capacity;
    ev_name = [||];
    ev_ph = Bytes.empty;
    ev_ts = [||];
    ev_pid = [||];
    ev_tid = [||];
    ev_val = [||];
    head = 0;
    total = 0;
  }

let null =
  let t = create ~clock:(Clock.create ()) () in
  { t with is_null = true }

let clear t =
  t.head <- 0;
  t.total <- 0

let arm ?capacity t =
  if t.is_null then invalid_arg "Trace.arm: cannot arm the null trace";
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Trace.arm: capacity <= 0"
  | Some c -> t.cap <- c
  | None -> ());
  if Array.length t.ev_name <> t.cap then begin
    t.ev_name <- Array.make t.cap "";
    t.ev_ph <- Bytes.make t.cap 'i';
    t.ev_ts <- Array.make t.cap 0;
    t.ev_pid <- Array.make t.cap 0;
    t.ev_tid <- Array.make t.cap 0;
    t.ev_val <- Array.make t.cap no_value
  end;
  clear t;
  t.enabled <- true

let disarm t = t.enabled <- false
let enabled t = t.enabled

(* The slow path shared by all recording entry points.  Callers have
   already paid the [enabled] branch; from here on we are recording for
   real, so a bounds-checked write or two is irrelevant. *)
let record t ph ~name ~pid ~value =
  let i = t.head in
  t.ev_name.(i) <- name;
  Bytes.unsafe_set t.ev_ph i ph;
  t.ev_ts.(i) <- Clock.now t.clock;
  t.ev_pid.(i) <- pid;
  t.ev_tid.(i) <- Fiber.fiber_id ();
  t.ev_val.(i) <- value;
  t.head <- (if i + 1 = t.cap then 0 else i + 1);
  t.total <- t.total + 1

let span_begin t ~name ~pid =
  if t.enabled then record t 'B' ~name ~pid ~value:no_value

let span_end t ~name ~pid =
  if t.enabled then record t 'E' ~name ~pid ~value:no_value

let instant t ~name ~pid =
  if t.enabled then record t 'i' ~name ~pid ~value:no_value

let count t ~name ~pid ~value =
  if t.enabled then record t 'C' ~name ~pid ~value

let recorded t = min t.total (Array.length t.ev_name)
let dropped t = max 0 (t.total - Array.length t.ev_name)

(* ------------------------------------------------------------------ *)
(* Chrome trace export.

   Deterministic by construction: timestamps come from the simulated
   clock (integers), rendered to microseconds with three decimals using
   integer arithmetic only — no float formatting, no locale, no host
   time.  Two runs of the same seeded workload produce byte-identical
   output. *)

let escape_into buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let to_chrome_json t =
  let live = recorded t in
  let size = Array.length t.ev_name in
  (* Chronological order: if the ring wrapped, the oldest surviving event
     sits at [head]; otherwise slot 0. *)
  let start = if t.total > size then t.head else 0 in
  let buf = Buffer.create (256 + (live * 96)) in
  Buffer.add_string buf "{\"traceEvents\":[";
  for k = 0 to live - 1 do
    let i = (start + k) mod (max size 1) in
    if k > 0 then Buffer.add_string buf ",";
    Buffer.add_string buf "\n{\"name\":\"";
    escape_into buf t.ev_name.(i);
    Buffer.add_string buf "\",\"cat\":\"wedge\",\"ph\":\"";
    Buffer.add_char buf (Bytes.get t.ev_ph i);
    let ts = t.ev_ts.(i) in
    Buffer.add_string buf
      (Printf.sprintf "\",\"ts\":%d.%03d,\"pid\":%d,\"tid\":%d" (ts / 1000)
         (ts mod 1000) t.ev_pid.(i) t.ev_tid.(i));
    (match Bytes.get t.ev_ph i with
    | 'i' -> Buffer.add_string buf ",\"s\":\"t\""
    | _ -> ());
    let v = t.ev_val.(i) in
    if v <> no_value then
      Buffer.add_string buf (Printf.sprintf ",\"args\":{\"value\":%d}" v);
    Buffer.add_string buf "}"
  done;
  Buffer.add_string buf
    (Printf.sprintf
       "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"clockDomain\":\"simulated\",\"droppedEvents\":%d}}"
       (dropped t));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Schema validation for the CI smoke gate.  The container has no JSON
   library, so this is a small recursive-descent parser building a
   throwaway AST, plus shape checks for the Chrome trace format. *)

type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jarr of json list
  | Jobj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos >= n then '\000' else s.[!pos] in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = c then advance ()
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    String.iter (fun c -> expect c) word;
    v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (match peek () with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
              if !pos + 4 >= n then fail "truncated \\u escape";
              let hex = String.sub s (!pos + 1) 4 in
              (match int_of_string_opt ("0x" ^ hex) with
              | Some code ->
                  (* good enough for validation: keep BMP as '?' outside
                     ASCII rather than full UTF-8 encoding *)
                  if code < 0x80 then Buffer.add_char b (Char.chr code)
                  else Buffer.add_char b '?';
                  pos := !pos + 4
              | None -> fail "bad \\u escape")
          | _ -> fail "bad escape");
          advance ();
          go ()
      | c when Char.code c < 0x20 -> fail "raw control char in string"
      | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    if peek () = '-' then advance ();
    let digits () =
      let d0 = !pos in
      while (match peek () with '0' .. '9' -> true | _ -> false) do
        advance ()
      done;
      if !pos = d0 then fail "expected digit"
    in
    digits ();
    if peek () = '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
    | 'e' | 'E' ->
        advance ();
        (match peek () with '+' | '-' -> advance () | _ -> ());
        digits ()
    | _ -> ());
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' -> parse_obj ()
    | '[' -> parse_arr ()
    | '"' -> Jstr (parse_string ())
    | 't' -> literal "true" (Jbool true)
    | 'f' -> literal "false" (Jbool false)
    | 'n' -> literal "null" Jnull
    | '-' | '0' .. '9' -> Jnum (parse_number ())
    | '\000' -> fail "unexpected end of input"
    | c -> fail (Printf.sprintf "unexpected '%c'" c)
  and parse_obj () =
    expect '{';
    skip_ws ();
    if peek () = '}' then begin
      advance ();
      Jobj []
    end
    else begin
      let fields = ref [] in
      let rec members () =
        skip_ws ();
        let key = parse_string () in
        skip_ws ();
        expect ':';
        let v = parse_value () in
        fields := (key, v) :: !fields;
        skip_ws ();
        match peek () with
        | ',' ->
            advance ();
            members ()
        | '}' -> advance ()
        | _ -> fail "expected ',' or '}'"
      in
      members ();
      Jobj (List.rev !fields)
    end
  and parse_arr () =
    expect '[';
    skip_ws ();
    if peek () = ']' then begin
      advance ();
      Jarr []
    end
    else begin
      let items = ref [] in
      let rec elements () =
        let v = parse_value () in
        items := v :: !items;
        skip_ws ();
        match peek () with
        | ',' ->
            advance ();
            elements ()
        | ']' -> advance ()
        | _ -> fail "expected ',' or ']'"
      in
      elements ();
      Jarr (List.rev !items)
    end
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let validate_chrome_json s =
  match parse_json s with
  | exception Bad_json msg -> Error msg
  | Jobj fields -> (
      match List.assoc_opt "traceEvents" fields with
      | None -> Error "missing \"traceEvents\""
      | Some (Jarr events) -> (
          let check_event i = function
            | Jobj ev ->
                let str key =
                  match List.assoc_opt key ev with
                  | Some (Jstr _) -> Ok ()
                  | _ ->
                      Error
                        (Printf.sprintf "event %d: missing string %S" i key)
                in
                let num key =
                  match List.assoc_opt key ev with
                  | Some (Jnum _) -> Ok ()
                  | _ ->
                      Error
                        (Printf.sprintf "event %d: missing number %S" i key)
                in
                let ( let* ) r f = match r with Ok () -> f () | e -> e in
                let* () = str "name" in
                let* () = str "ph" in
                let* () = num "ts" in
                let* () = num "pid" in
                let* () = num "tid" in
                Ok ()
            | _ -> Error (Printf.sprintf "event %d: not an object" i)
          in
          let rec all i = function
            | [] -> Ok ()
            | ev :: rest -> (
                match check_event i ev with
                | Ok () -> all (i + 1) rest
                | Error _ as e -> e)
          in
          match all 0 events with Ok () -> Ok () | Error _ as e -> e)
      | Some _ -> Error "\"traceEvents\" is not an array")
  | _ -> Error "top level is not an object"

module For_testing = struct
  (* How many instants named [name] survive in the ring.  A query, not a
     counter: events pushed out by wrap-around are not counted — size the
     buffer for the workload when asserting on this (tests do). *)
  let instants_named t ~name =
    let live = recorded t in
    let n = ref 0 in
    for i = 0 to live - 1 do
      if Bytes.get t.ev_ph i = 'i' && t.ev_name.(i) = name then incr n
    done;
    !n
end
