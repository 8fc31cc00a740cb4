type seg_kind =
  | Global of string
  | Heap
  | Tagged of int
  | Stack_frame of string

type segment = {
  seg_id : int;
  base : int;
  len : int;
  kind : seg_kind;
  label : string option;
  alloc_bt : Backtrace.frame list;
  mutable live : bool;
}

type mode =
  | Read
  | Write

type access = {
  a_addr : int;
  a_len : int;
  a_mode : mode;
  a_bt : Backtrace.frame list;
  a_seg : segment option;
  a_off : int;
}

type t = {
  mutable accs : access array;
  mutable count : int;
  mutable segs : segment list;
  by_page : (int, segment list ref) Hashtbl.t;  (* page -> overlapping segments *)
  mutable next_seg : int;
  mutable last_seg : segment option;  (* locality cache for attribution *)
}

let dummy_access =
  { a_addr = 0; a_len = 0; a_mode = Read; a_bt = []; a_seg = None; a_off = -1 }

let create () =
  {
    accs = Array.make 1024 dummy_access;
    count = 0;
    segs = [];
    by_page = Hashtbl.create 256;
    next_seg = 1;
    last_seg = None;
  }

let page a = a lsr 12

let add_segment ?label t ~base ~len ~kind ~bt =
  let seg = { seg_id = t.next_seg; base; len; kind; label; alloc_bt = bt; live = true } in
  t.next_seg <- t.next_seg + 1;
  t.segs <- seg :: t.segs;
  for p = page base to page (base + len - 1) do
    match Hashtbl.find_opt t.by_page p with
    | Some l -> l := seg :: !l
    | None -> Hashtbl.add t.by_page p (ref [ seg ])
  done;
  seg

let retire_segment t ~base =
  match Hashtbl.find_opt t.by_page (page base) with
  | Some l -> (
      match List.find_opt (fun s -> s.live && s.base = base) !l with
      | Some s -> s.live <- false
      | None -> ())
  | None -> ()

let find_segment t addr =
  match Hashtbl.find_opt t.by_page (page addr) with
  | None -> None
  | Some l ->
      (* Innermost (most recently allocated) live segment wins, so a
         malloc'd buffer inside a tag segment attributes to the buffer. *)
      List.find_opt (fun s -> s.live && addr >= s.base && addr < s.base + s.len) !l

let grow t =
  let fresh = Array.make (Array.length t.accs * 2) t.accs.(0) in
  Array.blit t.accs 0 fresh 0 t.count;
  t.accs <- fresh

let record t ~addr ~len ~mode ~bt =
  if t.count = Array.length t.accs then grow t;
  (* Accesses are strongly local: check the last-hit segment first. *)
  let seg =
    match t.last_seg with
    | Some s when s.live && addr >= s.base && addr < s.base + s.len -> Some s
    | _ ->
        let s = find_segment t addr in
        t.last_seg <- s;
        s
  in
  let off = match seg with Some s -> addr - s.base | None -> -1 in
  t.accs.(t.count) <- { a_addr = addr; a_len = len; a_mode = mode; a_bt = bt; a_seg = seg; a_off = off };
  t.count <- t.count + 1

let accesses t = Array.sub t.accs 0 t.count
let access_count t = t.count
let segments t = List.rev t.segs

let seg_kind_to_string = function
  | Global name -> "global " ^ name
  | Heap -> "heap"
  | Tagged id -> Printf.sprintf "tag %d" id
  | Stack_frame fn -> "stack frame of " ^ fn

let describe seg =
  match seg.label with
  | Some l -> Printf.sprintf "%s %S" (seg_kind_to_string seg.kind) l
  | None -> seg_kind_to_string seg.kind

(* ------------------------------------------------------------------ *)
(* On-disk format: one record per line.
     S <id> <base> <len> <live> <kind...> | <bt frames...>
     A <addr> <len> <R/W> <seg_id|-> <off> | <bt frames...>
   Frames are "fn@file@line" separated by spaces; fields are %-escaped. *)

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '%' -> Buffer.add_string b "%25"
      | ' ' -> Buffer.add_string b "%20"
      | '@' -> Buffer.add_string b "%40"
      | '|' -> Buffer.add_string b "%7c"
      | '\n' -> Buffer.add_string b "%0a"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let unescape s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i < n then
      if s.[i] = '%' && i + 2 < n then begin
        Buffer.add_char b (Char.chr (int_of_string ("0x" ^ String.sub s (i + 1) 2)));
        go (i + 3)
      end
      else begin
        Buffer.add_char b s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents b

let kind_encode = function
  | Global name -> "G " ^ escape name
  | Heap -> "H"
  | Tagged id -> "T " ^ string_of_int id
  | Stack_frame fn -> "F " ^ escape fn

let kind_decode = function
  | [ "H" ] -> Some Heap
  | [ "G"; name ] -> Some (Global (unescape name))
  | [ "T"; id ] -> Option.map (fun i -> Tagged i) (int_of_string_opt id)
  | [ "F"; fn ] -> Some (Stack_frame (unescape fn))
  | _ -> None

let bt_encode bt =
  String.concat " "
    (List.map
       (fun f -> Printf.sprintf "%s@%s@%d" (escape f.Backtrace.fn) (escape f.Backtrace.file) f.Backtrace.line)
       bt)

let bt_decode s =
  if String.trim s = "" then Some []
  else
    String.split_on_char ' ' (String.trim s)
    |> List.map (fun frame ->
           match String.split_on_char '@' frame with
           | [ fn; file; line ] ->
               Option.map
                 (fun line -> { Backtrace.fn = unescape fn; file = unescape file; line })
                 (int_of_string_opt line)
           | _ -> None)
    |> fun l -> if List.for_all Option.is_some l then Some (List.filter_map Fun.id l) else None

let save t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc "S %d %d %d %b %s %s | %s\n" s.seg_id s.base s.len s.live
        (match s.label with Some l -> escape l | None -> "-")
        (kind_encode s.kind) (bt_encode s.alloc_bt))
    (List.rev t.segs);
  Array.iter
    (fun a ->
      Printf.fprintf oc "A %d %d %s %s %d | %s\n" a.a_addr a.a_len
        (match a.a_mode with Read -> "R" | Write -> "W")
        (match a.a_seg with Some s -> string_of_int s.seg_id | None -> "-")
        a.a_off (bt_encode a.a_bt))
    (Array.sub t.accs 0 t.count);
  close_out oc

let load path =
  try
    let ic = open_in path in
    let out = create () in
    let by_id = Hashtbl.create 64 in
    let err = ref None in
    (try
       let lineno = ref 0 in
       while true do
         incr lineno;
         let line = input_line ic in
         let fail () = err := Some (Printf.sprintf "%s:%d: malformed line" path !lineno) in
         match String.index_opt line '|' with
         | None -> if String.trim line <> "" then fail ()
         | Some bar -> (
             let head = String.sub line 0 bar in
             let bt_str = String.sub line (bar + 1) (String.length line - bar - 1) in
             match (String.split_on_char ' ' (String.trim head), bt_decode bt_str) with
             | "S" :: id :: base :: len :: live :: label :: kind, Some bt -> (
                 match
                   (int_of_string_opt id, int_of_string_opt base, int_of_string_opt len,
                    bool_of_string_opt live, kind_decode kind)
                 with
                 | Some id, Some base, Some len, Some live, Some kind ->
                     let label = if label = "-" then None else Some (unescape label) in
                     let s = add_segment out ?label ~base ~len ~kind ~bt in
                     s.live <- live;
                     Hashtbl.replace by_id id s
                 | _ -> fail ())
             | [ "A"; addr; len; mode; seg; off ], Some bt -> (
                 match
                   (int_of_string_opt addr, int_of_string_opt len, int_of_string_opt off)
                 with
                 | Some addr, Some len, Some off ->
                     let seg =
                       match int_of_string_opt seg with
                       | Some id -> Hashtbl.find_opt by_id id
                       | None -> None
                     in
                     if out.count = Array.length out.accs then grow out;
                     out.accs.(out.count) <-
                       {
                         a_addr = addr;
                         a_len = len;
                         a_mode = (if mode = "W" then Write else Read);
                         a_bt = bt;
                         a_seg = seg;
                         a_off = off;
                       };
                     out.count <- out.count + 1
                 | _ -> fail ())
             | _ -> fail ())
       done
     with End_of_file -> ());
    close_in ic;
    match !err with Some e -> Error e | None -> Ok out
  with Sys_error e -> Error e
