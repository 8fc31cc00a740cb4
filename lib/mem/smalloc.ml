module Vm = Wedge_kernel.Vm

exception Out_of_tag_memory of { base : int; requested : int }

(* Segment header:
     base + 0  : magic
     base + 8  : free-list head (0 = empty)
     base + 16 : segment end address
   Chunks (8-byte aligned):
     chunk + 0        : size lor in-use bit   (size includes header+footer)
     chunk + size - 8 : same word (footer)
   Free chunks additionally:
     chunk + 8  : next free chunk (0 = nil)
     chunk + 16 : prev free chunk (0 = nil)
   User pointers are chunk + 8. *)

let magic = 0x5745444745_53 (* "WEDGE-S" ish *)
let overhead = 32
let min_chunk = 32
let inuse_bit = 1

let align8 n = (n + 7) land lnot 7
let hd_free base = base + 8
let hd_end base = base + 16

let chunk_size_word vm c = Vm.read_u64 vm c
let size_of w = w land lnot 7
let is_inuse w = w land inuse_bit <> 0

let set_chunk vm c ~size ~inuse =
  let w = size lor (if inuse then inuse_bit else 0) in
  Vm.write_u64 vm c w;
  Vm.write_u64 vm (c + size - 8) w

let fl_next vm c = Vm.read_u64 vm (c + 8)
let fl_prev vm c = Vm.read_u64 vm (c + 16)
let set_fl_next vm c v = Vm.write_u64 vm (c + 8) v
let set_fl_prev vm c v = Vm.write_u64 vm (c + 16) v

let fl_push vm ~base c =
  let head = Vm.read_u64 vm (hd_free base) in
  set_fl_next vm c head;
  set_fl_prev vm c 0;
  if head <> 0 then set_fl_prev vm head c;
  Vm.write_u64 vm (hd_free base) c

let fl_remove vm ~base c =
  let next = fl_next vm c and prev = fl_prev vm c in
  if prev = 0 then Vm.write_u64 vm (hd_free base) next else set_fl_next vm prev next;
  if next <> 0 then set_fl_prev vm next prev

let first_chunk base = base + overhead

let init vm ~base ~size =
  if size < overhead + min_chunk then invalid_arg "Smalloc.init: segment too small";
  let seg_end = base + (size land lnot 7) in
  Vm.write_u64 vm base magic;
  Vm.write_u64 vm (hd_end base) seg_end;
  let c = first_chunk base in
  let csize = seg_end - c in
  set_chunk vm c ~size:csize ~inuse:false;
  Vm.write_u64 vm (hd_free base) 0;
  fl_push vm ~base c

let prefill_image ~base ~size =
  let seg_end = base + (size land lnot 7) in
  let c = base + overhead in
  let csize = seg_end - c in
  [
    (base, magic);
    (base + 8, c);
    (base + 16, seg_end);
    (c, csize);
    (c + 8, 0);
    (c + 16, 0);
    (seg_end - 8, csize);
  ]

let assert_magic vm base =
  if Vm.read_u64 vm base <> magic then
    invalid_arg (Printf.sprintf "Smalloc: no segment at 0x%x (bad magic)" base)

let alloc vm ~base n =
  assert_magic vm base;
  if n <= 0 then invalid_arg "Smalloc.alloc: n <= 0";
  let need = max min_chunk (align8 n + 16) in
  (* First fit. *)
  let rec find c =
    if c = 0 then raise (Out_of_tag_memory { base; requested = n })
    else
      let w = chunk_size_word vm c in
      if size_of w >= need then c else find (fl_next vm c)
  in
  let c = find (Vm.read_u64 vm (hd_free base)) in
  let csize = size_of (chunk_size_word vm c) in
  fl_remove vm ~base c;
  if csize - need >= min_chunk then begin
    (* Split: tail remains free. *)
    let tail = c + need in
    set_chunk vm c ~size:need ~inuse:true;
    set_chunk vm tail ~size:(csize - need) ~inuse:false;
    fl_push vm ~base tail
  end
  else set_chunk vm c ~size:csize ~inuse:true;
  c + 8

(* Validate a caller-supplied user pointer before trusting the boundary
   tags around it.  A wild in-segment pointer whose word happens to carry
   the in-use bit would otherwise be accepted by [free] and silently
   corrupt the free list — the allocator must reject it as a programming
   error, not propagate the corruption.  Checks: alignment, range within
   [first_chunk, seg_end), a sane header (size >= min_chunk, chunk fits
   in the segment), and header/footer agreement. *)
let checked_chunk vm ~base ~op ptr =
  assert_magic vm base;
  let seg_end = Vm.read_u64 vm (hd_end base) in
  if ptr land 7 <> 0 then
    invalid_arg (Printf.sprintf "Smalloc.%s: misaligned pointer 0x%x" op ptr);
  let c = ptr - 8 in
  if c < first_chunk base || c >= seg_end then
    invalid_arg
      (Printf.sprintf "Smalloc.%s: pointer 0x%x outside segment [0x%x, 0x%x)"
         op ptr (first_chunk base + 8) seg_end);
  let w = chunk_size_word vm c in
  let size = size_of w in
  if size < min_chunk || c + size > seg_end then
    invalid_arg
      (Printf.sprintf "Smalloc.%s: corrupt or wild pointer 0x%x (chunk size %d)"
         op ptr size);
  let fw = Vm.read_u64 vm (c + size - 8) in
  if fw <> w then
    invalid_arg
      (Printf.sprintf "Smalloc.%s: header/footer mismatch at 0x%x (not a chunk?)"
         op ptr);
  (c, w, seg_end)

let free vm ~base ptr =
  let c, w, seg_end = checked_chunk vm ~base ~op:"free" ptr in
  if not (is_inuse w) then invalid_arg (Printf.sprintf "Smalloc.free: double free at 0x%x" ptr);
  let csize = size_of w in
  (* Coalesce with successor. *)
  let c, csize =
    let next = c + csize in
    if next < seg_end && not (is_inuse (chunk_size_word vm next)) then begin
      fl_remove vm ~base next;
      (c, csize + size_of (chunk_size_word vm next))
    end
    else (c, csize)
  in
  (* Coalesce with predecessor via its footer. *)
  let c, csize =
    if c > first_chunk base then begin
      let pw = Vm.read_u64 vm (c - 8) in
      if not (is_inuse pw) then begin
        let prev = c - size_of pw in
        fl_remove vm ~base prev;
        (prev, csize + size_of pw)
      end
      else (c, csize)
    end
    else (c, csize)
  in
  set_chunk vm c ~size:csize ~inuse:false;
  fl_push vm ~base c

module For_testing = struct
  let usable_size vm ~base ~ptr =
    let _, w, _ = checked_chunk vm ~base ~op:"usable_size" ptr in
    if not (is_inuse w) then invalid_arg "Smalloc.usable_size: free chunk";
    size_of w - 16

  let free_bytes vm ~base =
    assert_magic vm base;
    let rec go c acc =
      if c = 0 then acc else go (fl_next vm c) (acc + size_of (chunk_size_word vm c))
    in
    go (Vm.read_u64 vm (hd_free base)) 0
end

(* Whole-segment integrity walk, parameterized over the word reader so an
   invariant oracle can run it through a raw page-table walk (no clock
   charges, no TLB pollution, no injected-fault rolls) without perturbing
   the schedule under test.  Beyond the historical boundary-tag walk it
   validates the free list itself: every link lands on a free chunk the
   walk saw, no cycles, prev/next symmetry, and every free chunk on the
   list exactly once. *)
let is_segment ~read ~base = read base = magic

let check_reader ~read ~base =
  if read base <> magic then
    invalid_arg (Printf.sprintf "Smalloc: no segment at 0x%x (bad magic)" base);
  let seg_end = read (hd_end base) in
  let free_chunks = Hashtbl.create 16 in
  let rec walk c prev_free =
    if c < seg_end then begin
      let w = read c in
      let size = size_of w in
      if size < min_chunk || c + size > seg_end then
        invalid_arg (Printf.sprintf "Smalloc.check: bad chunk size %d at 0x%x" size c);
      let fw = read (c + size - 8) in
      if fw <> w then
        invalid_arg (Printf.sprintf "Smalloc.check: header/footer mismatch at 0x%x" c);
      if prev_free && not (is_inuse w) then
        invalid_arg (Printf.sprintf "Smalloc.check: uncoalesced free chunks at 0x%x" c);
      if not (is_inuse w) then Hashtbl.replace free_chunks c ();
      walk (c + size) (not (is_inuse w))
    end
  in
  walk (first_chunk base) false;
  let n_free = Hashtbl.length free_chunks in
  let seen = Hashtbl.create 16 in
  let rec follow c prev steps =
    if c <> 0 then begin
      if steps > n_free then
        invalid_arg (Printf.sprintf "Smalloc.check: free list longer than free chunks");
      if not (Hashtbl.mem free_chunks c) then
        invalid_arg (Printf.sprintf "Smalloc.check: free list links to non-free 0x%x" c);
      if Hashtbl.mem seen c then
        invalid_arg (Printf.sprintf "Smalloc.check: free list cycle at 0x%x" c);
      Hashtbl.replace seen c ();
      if read (c + 16) <> prev then
        invalid_arg (Printf.sprintf "Smalloc.check: bad prev link at 0x%x" c);
      follow (read (c + 8)) c (steps + 1)
    end
  in
  follow (read (hd_free base)) 0 0;
  if Hashtbl.length seen <> n_free then
    invalid_arg
      (Printf.sprintf "Smalloc.check: %d free chunks but %d on the free list" n_free
         (Hashtbl.length seen))
