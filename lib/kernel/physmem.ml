module Fault_plan = Wedge_fault.Fault_plan

let page_size = 4096

exception Enomem

(* A frame is live while its refcount is positive.  Its host bytes are
   [zero] — one page shared by every frame this kernel never wrote —
   until the first [get_mut] gives it a private page; freeing drops the
   private page. *)
type t = {
  mutable frames : bytes array;
  mutable refs : int array;
  zero : bytes;
  free : int Queue.t;
  mutable used : int;
  mutable host : int;
  mutable next : int;
  max_frames : int option;
  faults : Fault_plan.t option;
}

let create ?faults ?max_frames () =
  let zero = Bytes.make page_size '\000' in
  {
    frames = Array.make 64 zero;
    refs = Array.make 64 0;
    zero;
    free = Queue.create ();
    used = 0;
    host = 0;
    next = 0;
    max_frames;
    faults;
  }

let grow t =
  let n = Array.length t.frames in
  let frames = Array.make (n * 2) t.zero in
  Array.blit t.frames 0 frames 0 n;
  let refs = Array.make (n * 2) 0 in
  Array.blit t.refs 0 refs 0 n;
  t.frames <- frames;
  t.refs <- refs

let alloc t =
  (match t.max_frames with
  | Some m when t.used >= m -> raise Enomem
  | _ -> ());
  (match Fault_plan.roll_opt t.faults ~site:"physmem.alloc" with
  | Some _ -> raise Enomem
  | None -> ());
  let f =
    match Queue.take_opt t.free with
    | Some f -> f
    | None ->
        if t.next >= Array.length t.frames then grow t;
        let f = t.next in
        t.next <- t.next + 1;
        f
  in
  t.refs.(f) <- 1;
  t.used <- t.used + 1;
  f

let dead fn f = invalid_arg (Printf.sprintf "Physmem.%s: dead frame %d" fn f)
let get t f = if t.refs.(f) <= 0 then dead "get" f else t.frames.(f)

let get_mut t f =
  if t.refs.(f) <= 0 then dead "get_mut" f;
  let b = t.frames.(f) in
  if b != t.zero then b
  else begin
    let b = Bytes.make page_size '\000' in
    t.frames.(f) <- b;
    t.host <- t.host + 1;
    b
  end

let scrub t f =
  let b = get t f in
  if b != t.zero then Bytes.fill b 0 page_size '\000'

let incref t f =
  if t.refs.(f) <= 0 then dead "incref" f;
  t.refs.(f) <- t.refs.(f) + 1

let decref t f =
  if t.refs.(f) <= 0 then dead "decref" f;
  t.refs.(f) <- t.refs.(f) - 1;
  if t.refs.(f) = 0 then begin
    if t.frames.(f) != t.zero then begin
      t.frames.(f) <- t.zero;
      t.host <- t.host - 1
    end;
    t.used <- t.used - 1;
    Queue.push f t.free
  end

let refcount t f = t.refs.(f)
let frames_in_use t = t.used
let host_frames t = t.host
let zero_page_clean t = Bytes.for_all (fun c -> c = '\000') t.zero

let iter_live t f =
  for i = 0 to t.next - 1 do
    if t.refs.(i) > 0 then f i t.refs.(i)
  done
