module W = Wedge_core.Wedge

(* Layout at [base]:
     +0  u32 live count
     +4  u32 next write slot (FIFO cursor)
     +8  slots: cap x (u8 live ++ sid[16] ++ master[32])
   with a fixed capacity of 64 slots, Apache's own default. *)

let slot_size = 1 + 16 + 32
let sid_len = 16

type t = {
  tagv : Wedge_mem.Tag.t;
  base : int;
  enabled : bool;
}

let cap = 64

let header = 8
let slot_addr t i = t.base + header + (i * slot_size)

let create ?(enabled = true) ctx =
  let bytes_needed = header + (cap * slot_size) + 64 in
  let pages = Wedge_kernel.Layout.pages_for ~bytes_len:(bytes_needed + 64) in
  let tagv = W.tag_new ~name:"ssl.session_cache" ~pages ctx in
  let base = W.smalloc ctx bytes_needed tagv in
  W.write_u32 ctx base 0;
  W.write_u32 ctx (base + 4) 0;
  for i = 0 to cap - 1 do
    W.write_u8 ctx (base + header + (i * slot_size)) 0
  done;
  { tagv; base; enabled }

let tag t = t.tagv

let pad_sid sid =
  if String.length sid > sid_len then String.sub sid 0 sid_len
  else sid ^ String.make (sid_len - String.length sid) '\000'

let find_slot ctx t sid =
  let padded = pad_sid sid in
  let rec go i =
    if i >= cap then None
    else if
      W.read_u8 ctx (slot_addr t i) = 1
      && W.read_string ctx (slot_addr t i + 1) sid_len = padded
    then Some i
    else go (i + 1)
  in
  go 0

let store ctx t ~sid ~master =
  if t.enabled then begin
    if Bytes.length master <> 32 then invalid_arg "Sess_store.store: master must be 32 bytes";
    let i =
      match find_slot ctx t sid with
      | Some i -> i
      | None ->
          let cursor = W.read_u32 ctx (t.base + 4) in
          W.write_u32 ctx (t.base + 4) ((cursor + 1) mod cap);
          (* bump the live count only when claiming a fresh slot *)
          if W.read_u8 ctx (slot_addr t cursor) = 0 then
            W.write_u32 ctx t.base (W.read_u32 ctx t.base + 1);
          cursor
    in
    W.write_u8 ctx (slot_addr t i) 1;
    W.write_string ctx (slot_addr t i + 1) (pad_sid sid);
    W.write_bytes ctx (slot_addr t i + 1 + sid_len) master
  end

let lookup ctx t ~sid =
  if not t.enabled then None
  else
    match find_slot ctx t sid with
    | Some i -> Some (W.read_bytes ctx (slot_addr t i + 1 + sid_len) 32)
    | None -> None
