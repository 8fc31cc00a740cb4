module Clock = Wedge_sim.Clock
module Cost_model = Wedge_sim.Cost_model

type access =
  | Read
  | Write

type fault = {
  pid : int;
  addr : int;
  access : access;
  reason : string;
}

exception Fault of fault

let fault_to_string f =
  Printf.sprintf "protection fault: pid %d %s at 0x%x (%s)" f.pid
    (match f.access with Read -> "read" | Write -> "write")
    f.addr f.reason

(* ------------------------------------------------------------------ *)
(* Memory-event stream (differential checking)                         *)

(* When the recorder cell is armed, every structural change to an address
   space and every access outcome emits one event.  The cell is shared by
   all address spaces of a kernel (see [Kernel.create]) so one consumer
   observes the globally ordered, cross-process stream — which is what a
   reference model needs to follow COW sharing between processes.  The
   disarmed cost is one load and compare per access, off the per-byte
   path. *)
type mem_event =
  | Ev_map of {
      pid : int;
      vpn : int;
      frame : int;
      prot : Prot.page;
      seed : bytes option;
          (* [None]: a freshly allocated zeroed frame.  [Some snap]: an
             existing frame mapped in; [snap] is its content at map time,
             so a model that has never seen the frame can seed it. *)
    }
  | Ev_unmap of { pid : int; vpn : int }
  | Ev_prot of { pid : int; vpn : int; prot : Prot.page }
  | Ev_cow of {
      pid : int;
      vpn : int;
      frame : int;  (* the frame backing [vpn] after the break *)
      prot : Prot.page;
    }
  | Ev_destroy of { pid : int }
  | Ev_read of { pid : int; addr : int; value : bytes; u64 : bool }
  | Ev_write of { pid : int; addr : int; value : bytes }
  | Ev_fault of {
      pid : int;
      addr : int;  (* the faulting address, not the access start *)
      access : access;
      reason : string;
    }

type recorder = {
  mutable sink : (mem_event -> unit) option;
  mutable raised : exn option;
      (* the last exception [sink] raised, latched before it unwinds
         through the code that made the access: a compartment boundary
         reads it to let a checker's failure end the run instead of
         containing it as the compartment's own fault *)
}

(* ------------------------------------------------------------------ *)
(* Software TLB                                                        *)

(* Direct-mapped, per-address-space translation cache: vpn -> frame
   number + effective protection + tag.  The fast path costs one array
   index, three compares, one [Physmem] lookup and a byte access — no
   hashtable walk.  An entry caches the frame,
   never its bytes: every access resolves the bytes through [Physmem]
   (the read view for reads, the write view for writes), so a frame's
   first write — which moves it off the shared zero page onto private
   bytes — is seen at once through every other address space's warm
   entry for that frame, with no sharer list and no extra shootdown.
   Safety comes from two mechanisms:
     - every entry is stamped with the page table's epoch at fill time,
       so any map/unmap invalidates the whole cache with one compare;
     - in-place pte mutations (set_page_prot, COW breaks, tag retags) do
       not move the epoch and MUST call [tlb_invalidate] — a stale entry
       surviving a revocation would be a default-deny bypass, so those
       call sites are load-bearing and covered by the shootdown tests.
   An entry is a value: a fill stores a fresh one in its slot, and an
   invalidation or a flush stores [tlb_invalid].  So a new address space
   costs one 64-slot array, every slot the one shared invalid entry, and
   nothing a slot holds is ever written through — one space's fill can
   never become another's translation. *)

let tlb_slots = 64
let tlb_mask = tlb_slots - 1

type tlb_entry = {
  e_vpn : int;  (* -1 = invalid *)
  e_epoch : int;  (* Pagetable.epoch at fill time *)
  e_prot : Prot.page;  (* effective protection at fill time *)
  e_tag : int option;
  e_frame : int;
}

let tlb_invalid = { e_vpn = -1; e_epoch = 0; e_prot = Prot.page_none; e_tag = None; e_frame = -1 }

(* A snapshot: its read-only page table, what each page was built as —
   the ground truth that table is checked against, kept in flat columns
   beside it — and the frame references behind both.  [vpns] is the
   table's own sorted array. *)
type image = {
  table : Pagetable.base;
  vpns : int array;
  frames : int array;
  prots : Prot.page array;
  tags : int option array;
  pm : Physmem.t;  (* where its references are held *)
  tagged : bool;  (* some page carries a tag *)
  mutable holders : int;
  mutable registered : bool;  (* the owner has not released it *)
}

type t = {
  pid : int;
  pm : Physmem.t;
  pt : Pagetable.t;
  clock : Clock.t;
  costs : Cost_model.t;
  trace : Wedge_sim.Trace.t;
      (* instrumented off the fast path only: misses and shootdowns, not
         hits — an armed trace never slows the hit path *)
  recorder : recorder;
  mutable base : image option;  (* the image this table maps through *)
  tlb : tlb_entry array;
  mutable tlb_hit_n : int;
  mutable tlb_miss_n : int;
  mutable tlb_shootdown_n : int;
}

let create ?(trace = Wedge_sim.Trace.null) ?recorder ~pid pm clock costs =
  {
    pid;
    pm;
    pt = Pagetable.create ();
    clock;
    costs;
    trace;
    recorder = (match recorder with Some r -> r | None -> { sink = None; raised = None });
    base = None;
    tlb = Array.make tlb_slots tlb_invalid;
    tlb_hit_n = 0;
    tlb_miss_n = 0;
    tlb_shootdown_n = 0;
  }
let pid t = t.pid
let page_table t = t.pt
let page_size = Physmem.page_size
let vpn_of addr = addr lsr 12
let off_of addr = addr land (page_size - 1)

let fault t addr access reason = raise (Fault { pid = t.pid; addr; access; reason })

let check_aligned addr =
  if addr land (page_size - 1) <> 0 then
    invalid_arg (Printf.sprintf "Vm: address 0x%x not page aligned" addr)

(* Shoot down one cached translation.  The cost (and the counter) are paid
   only when an entry actually dies: an invalidation of nothing models a
   filtered IPI that never needed sending. *)
let tlb_invalidate t ~vpn =
  let slot = vpn land tlb_mask in
  if (Array.unsafe_get t.tlb slot).e_vpn = vpn then begin
    Array.unsafe_set t.tlb slot tlb_invalid;
    t.tlb_shootdown_n <- t.tlb_shootdown_n + 1;
    Clock.charge t.clock t.costs.Cost_model.tlb_shootdown;
    Wedge_sim.Trace.instant t.trace ~name:"tlb.shootdown" ~pid:t.pid
  end

let tlb_flush t =
  let any = ref false in
  for slot = 0 to tlb_slots - 1 do
    if t.tlb.(slot).e_vpn >= 0 then begin
      t.tlb.(slot) <- tlb_invalid;
      any := true
    end
  done;
  if !any then t.tlb_shootdown_n <- t.tlb_shootdown_n + 1

let tlb_hits t = t.tlb_hit_n
let tlb_misses t = t.tlb_miss_n
let tlb_shootdowns t = t.tlb_shootdown_n

let tlb_fill t vpn (pte : Pagetable.pte) =
  Array.unsafe_set t.tlb (vpn land tlb_mask)
    {
      e_vpn = vpn;
      e_epoch = Pagetable.epoch t.pt;
      e_prot = pte.Pagetable.prot;
      e_tag = pte.Pagetable.tag;
      e_frame = pte.Pagetable.frame;
    }

(* Hand [ev] to the armed consumer, latching what it raises. *)
let record rc f ev =
  match f ev with
  | () -> ()
  | exception e ->
      rc.raised <- Some e;
      raise e

let emit t ev = match t.recorder.sink with Some f -> record t.recorder f ev | None -> ()
let recording t = t.recorder.sink <> None

(* A refused mapping changes nothing: every mapping call lets the page
   table refuse an already-mapped vpn before it allocates a frame, takes
   a reference or charges.  [map_fresh] must allocate before it can map,
   so it asks first. *)
let refuse_mapped t vpn =
  if Pagetable.mem t.pt ~vpn then
    invalid_arg (Printf.sprintf "Vm: vpn 0x%x already mapped in pid %d" vpn t.pid)

let map_fresh t ~addr ~pages ~prot ~tag =
  check_aligned addr;
  for i = 0 to pages - 1 do
    let vpn = vpn_of addr + i in
    refuse_mapped t vpn;
    Clock.charge t.clock t.costs.Cost_model.page_alloc;
    let frame = Physmem.alloc t.pm in
    Pagetable.map t.pt ~vpn ~frame ~prot ~tag;
    if recording t then emit t (Ev_map { pid = t.pid; vpn; frame; prot; seed = None })
  done

let map_frame t ~addr ~frame ~prot ~tag =
  check_aligned addr;
  Pagetable.map t.pt ~vpn:(vpn_of addr) ~frame ~prot ~tag;
  Physmem.incref t.pm frame;
  if recording t then
    emit t
      (Ev_map
         {
           pid = t.pid;
           vpn = vpn_of addr;
           frame;
           prot;
           seed = Some (Bytes.copy (Physmem.get t.pm frame));
         })

(* A snapshot: the read-only page table built from its records once,
   which every address space restored from it maps through (see
   [Pagetable.base]), what each page was built as, and the frame
   references behind both.

   The image, not each address space, holds its pages' references: one
   per page, taken when it is built.  Its holders are the owner that
   registered it and every address space whose table uses it as base;
   whichever leaves last drops the references.  So installing it costs
   O(1), and a teardown costs only the entries the space owns. *)
let image pm vpns ptes =
  let table = Pagetable.base vpns ptes in
  let n = Array.length vpns in
  let frames = Array.make n 0 and prots = Array.make n Prot.page_none in
  let tags = Array.make n None and tagged = ref false in
  Array.iteri
    (fun i (pte : Pagetable.pte) ->
      frames.(i) <- pte.Pagetable.frame;
      prots.(i) <- pte.Pagetable.prot;
      if pte.Pagetable.tag <> None then begin
        tags.(i) <- pte.Pagetable.tag;
        tagged := true
      end;
      Physmem.incref pm pte.Pagetable.frame)
    ptes;
  { table; vpns; frames; prots; tags; pm; tagged = !tagged; holders = 1; registered = true }

let image_iter im f =
  for i = 0 to Array.length im.frames - 1 do
    f ~vpn:im.vpns.(i) ~frame:im.frames.(i) ~prot:im.prots.(i) ~tag:im.tags.(i)
  done

let image_tagged im = im.tagged
let image_table im = im.table
let image_size im = Array.length im.frames
let image_holders im = im.holders

let leave im =
  im.holders <- im.holders - 1;
  if im.holders = 0 then Array.iter (Physmem.decref im.pm) im.frames

let release_image im =
  if not im.registered then invalid_arg "Vm.release_image: the owner already released it";
  im.registered <- false;
  leave im

(* Install a snapshot: the address space points at the image's one shared
   table — the simulated analogue of pointing a child at a prepared
   pagetable subtree — and becomes one of its holders, so nothing is
   copied, allocated or referenced per page, and no cost is charged here
   (each caller charges what its spawn variant costs).  Recorder events
   are emitted per page: a differential reference VM must see these
   mappings exactly like any other, or COW breaks inside a stamped child
   would diverge. *)
let map_image t im =
  if im.holders = 0 then invalid_arg "Vm.map_image: image released";
  Pagetable.set_base t.pt im.table;
  im.holders <- im.holders + 1;
  t.base <- Some im;
  if recording t then
    image_iter im (fun ~vpn ~frame ~prot ~tag:_ ->
        emit t
          (Ev_map
             { pid = t.pid; vpn; frame; prot; seed = Some (Bytes.copy (Physmem.get t.pm frame)) }))

let mapped_image t = t.base

let unmap_range t ~addr ~pages =
  check_aligned addr;
  for i = 0 to pages - 1 do
    let vpn = vpn_of addr + i in
    (* The epoch bump from Pagetable.unmap already invalidates every
       cached entry; the explicit shootdown keeps the counter and the
       cost model honest about what a revocation did. *)
    tlb_invalidate t ~vpn;
    let own = Pagetable.owns t.pt ~vpn in
    match Pagetable.unmap t.pt ~vpn with
    | Some pte ->
        (* A base entry is only hidden: its reference is the image's. *)
        if own then Physmem.decref t.pm pte.Pagetable.frame;
        if recording t then emit t (Ev_unmap { pid = t.pid; vpn })
    | None -> ()
  done

(* The one copy-before-mutate step: every in-place rewrite below takes
   its pte here.  An entry seen through a shared image table is copied
   into this address space's own table first, so the rewrite never
   reaches the image or the siblings restored from it, and the copy
   takes its own frame reference, which the space drops like any other
   of its entries'. *)
let find_private t ~vpn =
  match Pagetable.find_own t.pt ~vpn with
  | Some _ as own -> own
  | None -> (
      match Pagetable.find_private t.pt ~vpn with
      | Some pte as copy ->
          Physmem.incref t.pm pte.Pagetable.frame;
          copy
      | None -> None)

(* In-place pte rewrites for kernel bookkeeping (boot's COW snapshot,
   fork's COW downgrade, boundary retags).  No cost is charged — callers
   account for their own PTE work — but the shootdown is mandatory:
   these are exactly the "behind the VM's back" mutations that used to
   touch the page table directly. *)
let protect t ~vpn (pte : Pagetable.pte) prot =
  pte.Pagetable.prot <- prot;
  tlb_invalidate t ~vpn;
  if recording t then emit t (Ev_prot { pid = t.pid; vpn; prot })

let set_page_prot t ~addr ~prot =
  let vpn = vpn_of addr in
  match find_private t ~vpn with
  | Some pte -> protect t ~vpn pte prot
  | None -> invalid_arg (Printf.sprintf "Vm.set_page_prot: 0x%x unmapped" addr)

(* Boot's checkpoint (§4.1) in one walk, one page-table lookup a page:
   each mapped page of the range turns copy-on-write here, in place and
   with the mandatory shootdown — a warm write entry surviving the
   downgrade would let later writes land on the snapshot's shared frames
   — and the image records it copy-on-write at its frame. *)
let snapshot t ~addr ~pages =
  check_aligned addr;
  let first = vpn_of addr in
  let vpns = Array.make pages 0 in
  let ptes = Array.make pages { Pagetable.frame = -1; prot = Prot.page_none; tag = None } in
  let n = ref 0 in
  for vpn = first to first + pages - 1 do
    match find_private t ~vpn with
    | Some pte ->
        protect t ~vpn pte Prot.page_cow;
        vpns.(!n) <- vpn;
        ptes.(!n) <- { pte with Pagetable.prot = Prot.page_cow };
        incr n
    | None -> ()
  done;
  if !n = pages then image t.pm vpns ptes
  else image t.pm (Array.sub vpns 0 !n) (Array.sub ptes 0 !n)

let set_page_tag t ~addr ~tag =
  match find_private t ~vpn:(vpn_of addr) with
  | Some pte ->
      pte.Pagetable.tag <- tag;
      tlb_invalidate t ~vpn:(vpn_of addr)
  | None -> invalid_arg (Printf.sprintf "Vm.set_page_tag: 0x%x unmapped" addr)

(* A teardown drops what the space owns — its own entries' references,
   then its hold on the image — and never visits the image's pages. *)
let destroy t =
  tlb_flush t;
  Pagetable.iter_own (fun _ pte -> Physmem.decref t.pm pte.Pagetable.frame) t.pt;
  Option.iter leave t.base;
  t.base <- None;
  Pagetable.clear t.pt;
  if recording t then emit t (Ev_destroy { pid = t.pid })

(* Take a private copy of a COW page so it can be written.  The frame
   swap happens in place — no epoch movement — so the explicit shootdown
   below is what stops a cached read entry from serving the old shared
   frame's bytes after the break.  Returns the page's (now private)
   pte. *)
let cow_break t ~vpn =
  let pte = Option.get (find_private t ~vpn) in
  Clock.charge t.clock t.costs.Cost_model.page_copy;
  if Physmem.refcount t.pm pte.frame > 1 then begin
    let fresh = Physmem.alloc t.pm in
    Bytes.blit (Physmem.get t.pm pte.frame) 0 (Physmem.get_mut t.pm fresh) 0 page_size;
    Physmem.decref t.pm pte.frame;
    pte.frame <- fresh
  end;
  pte.prot <- { pr = true; pw = true; pcow = false };
  tlb_invalidate t ~vpn;
  if recording t then
    emit t (Ev_cow { pid = t.pid; vpn; frame = pte.frame; prot = pte.prot });
  pte

(* The slow path: one page-table walk. *)
let pte_for t addr access =
  let vpn = vpn_of addr in
  match Pagetable.find t.pt ~vpn with
  | None -> fault t addr access "unmapped page"
  | Some pte -> (
      let p = pte.Pagetable.prot in
      match access with
      | Read ->
          if not p.Prot.pr then fault t addr Read "no read permission";
          pte
      | Write ->
          if p.Prot.pw then pte
          else if p.Prot.pcow then cow_break t ~vpn
          else fault t addr Write "no write permission")

(* Can a cached entry serve this access?  Reads need pr; writes need pw
   exactly — a COW page must fall through to the slow path so the break
   happens. *)
let perm_hit access (p : Prot.page) =
  match access with
  | Read -> p.Prot.pr
  | Write -> p.Prot.pw

(* The bytes an access of this kind sees: the write view gives an
   unwritten frame its private bytes, the read view never does. *)
let frame_bytes t access frame =
  match access with
  | Read -> Physmem.get t.pm frame
  | Write -> Physmem.get_mut t.pm frame

(* One translation: TLB fast path, page walk + fill on miss.  Returns the
   frame's bytes for this access; offsets within the page are the
   caller's. *)
let page_for t addr access =
  let vpn = addr lsr 12 in
  let e = Array.unsafe_get t.tlb (vpn land tlb_mask) in
  if e.e_vpn = vpn && e.e_epoch = Pagetable.epoch t.pt && perm_hit access e.e_prot
  then begin
    t.tlb_hit_n <- t.tlb_hit_n + 1;
    Clock.charge t.clock t.costs.Cost_model.tlb_hit;
    frame_bytes t access e.e_frame
  end
  else begin
    t.tlb_miss_n <- t.tlb_miss_n + 1;
    Clock.charge t.clock t.costs.Cost_model.tlb_miss;
    Wedge_sim.Trace.instant t.trace ~name:"tlb.miss" ~pid:t.pid;
    let pte = pte_for t addr access in
    tlb_fill t vpn pte;
    frame_bytes t access pte.Pagetable.frame
  end

let read_u8_raw t addr =
  let b = page_for t addr Read in
  Char.code (Bytes.unsafe_get b (addr land (page_size - 1)))

let write_u8_raw t addr v =
  let b = page_for t addr Write in
  Bytes.unsafe_set b (addr land (page_size - 1)) (Char.unsafe_chr (v land 0xff))

(* Page-cursor bulk transfer: one translation per page touched. *)
let rec blit_read_pages t addr buf pos len =
  if len > 0 then begin
    let off = off_of addr in
    let chunk = min len (page_size - off) in
    let b = page_for t addr Read in
    Bytes.blit b off buf pos chunk;
    blit_read_pages t (addr + chunk) buf (pos + chunk) (len - chunk)
  end

let rec blit_write_pages t addr src pos len =
  if len > 0 then begin
    let off = off_of addr in
    let chunk = min len (page_size - off) in
    let b = page_for t addr Write in
    Bytes.blit src pos b off chunk;
    blit_write_pages t (addr + chunk) src (pos + chunk) (len - chunk)
  end

(* Multi-page writes are atomic: every page is translated (and any COW
   break taken) before the first byte lands, so a fault on page N+1 never
   leaves a partial write on page N.  The probe pass warms the TLB, so
   the copy pass runs entirely on hits. *)
let rec probe_write_pages t addr len =
  if len > 0 then begin
    let off = off_of addr in
    let chunk = min len (page_size - off) in
    ignore (page_for t addr Write);
    probe_write_pages t (addr + chunk) (len - chunk)
  end

let blit_write_atomic t addr src pos len =
  if len > 0 then begin
    if off_of addr + len > page_size then probe_write_pages t addr len;
    blit_write_pages t addr src pos len
  end

(* Bound checked bulk reads before allocating the destination: a
   compromised compartment that fabricates a huge length (e.g. in a
   length-value block a callgate will read) must hit a protection fault,
   not force the host to allocate gigabytes first.  64 MiB is far beyond
   any simulated address-space region. *)
let max_read = 64 * 1024 * 1024

let read_len_ok len = len >= 0 && len <= max_read

(* Every argument is checked before any translation:
   a bad length faults as the MMU would, a range outside [buf] is the
   caller's bug. *)
let read_into_raw t addr buf pos len =
  if not (read_len_ok len) then
    fault t addr Read (Printf.sprintf "oversized read of %d bytes" len);
  if pos < 0 || pos > Bytes.length buf - len then invalid_arg "Vm.read_into";
  if len > 0 then blit_read_pages t addr buf pos len

let write_bytes_raw t addr src =
  let len = Bytes.length src in
  if len > 0 then blit_write_atomic t addr src 0 len

(* Multi-byte accessors: translate once when the value sits inside a page
   (the overwhelmingly common case), fall back to the page cursor across
   a boundary. *)

let read_u32_raw t addr =
  let off = off_of addr in
  if off <= page_size - 4 then
    Int32.to_int (Bytes.get_int32_le (page_for t addr Read) off) land 0xffffffff
  else begin
    let buf = Bytes.create 4 in
    blit_read_pages t addr buf 0 4;
    Int32.to_int (Bytes.get_int32_le buf 0) land 0xffffffff
  end

let write_u32_raw t addr v =
  let off = off_of addr in
  if off <= page_size - 4 then
    Bytes.set_int32_le (page_for t addr Write) off (Int32.of_int v)
  else begin
    let buf = Bytes.create 4 in
    Bytes.set_int32_le buf 0 (Int32.of_int v);
    blit_write_atomic t addr buf 0 4
  end

(* The u64 accessors live in OCaml's 63-bit int domain: read_u64 returns
   the LOW 63 BITS of the stored little-endian word, two's complement
   (bit 62 of the word is the sign bit of the result; bit 63 is dropped).
   write_u64 stores the 63-bit pattern zero-extended to 64 bits, so
   write/read round-trips exactly for every OCaml int, including
   negatives and max_int/min_int.  This is the same value the historical
   [lo lor (hi lsl 32)] computed — the mask makes it explicit instead of
   relying on lsl overflow. *)
let u64_store_mask = 0x7FFF_FFFF_FFFF_FFFFL

let read_u64_raw t addr =
  let off = off_of addr in
  if off <= page_size - 8 then Int64.to_int (Bytes.get_int64_le (page_for t addr Read) off)
  else begin
    let buf = Bytes.create 8 in
    blit_read_pages t addr buf 0 8;
    Int64.to_int (Bytes.get_int64_le buf 0)
  end

let write_u64_raw t addr v =
  let w = Int64.logand (Int64.of_int v) u64_store_mask in
  let off = off_of addr in
  if off <= page_size - 8 then Bytes.set_int64_le (page_for t addr Write) off w
  else begin
    let buf = Bytes.create 8 in
    Bytes.set_int64_le buf 0 w;
    blit_write_atomic t addr buf 0 8
  end

(* ------------------------------------------------------------------ *)
(* Recording facades over the raw accessors.  Disarmed: one load and one
   branch, no allocation.  Armed: the observed outcome — returned value
   (encoded little-endian, scalar reads/writes re-encoded exactly as the
   bytes a reference model computes from its own state) or the protection
   fault — is emitted after the access completes, with any [Ev_cow] the
   access triggered already in the stream before it. *)

let enc1 v =
  let b = Bytes.create 1 in
  Bytes.set_uint8 b 0 (v land 0xff);
  b

let enc4 v =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int v);
  b

(* Masked exactly like [write_u64_raw]'s store, so an emitted write value
   is byte-identical to what landed in the frame, and an emitted u64 read
   value is the stored word with bit 63 cleared — which a reference model
   reproduces by applying the same mask to its own word ([Ev_read.u64]). *)
let enc8 v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.logand (Int64.of_int v) u64_store_mask);
  b

let armed_read t r addr ~u64 enc f =
  match f () with
  | v ->
      record t.recorder r (Ev_read { pid = t.pid; addr; value = enc v; u64 });
      v
  | exception Fault ft ->
      record t.recorder r
        (Ev_fault { pid = t.pid; addr = ft.addr; access = Read; reason = ft.reason });
      raise (Fault ft)

let armed_write t r addr enc f =
  match f () with
  | () -> record t.recorder r (Ev_write { pid = t.pid; addr; value = enc () })
  | exception Fault ft ->
      record t.recorder r
        (Ev_fault { pid = t.pid; addr = ft.addr; access = Write; reason = ft.reason });
      raise (Fault ft)

let read_u8 t addr =
  match t.recorder.sink with
  | None -> read_u8_raw t addr
  | Some r -> armed_read t r addr ~u64:false enc1 (fun () -> read_u8_raw t addr)

let write_u8 t addr v =
  match t.recorder.sink with
  | None -> write_u8_raw t addr v
  | Some r ->
      armed_write t r addr (fun () -> enc1 v) (fun () -> write_u8_raw t addr v)

let read_u32 t addr =
  match t.recorder.sink with
  | None -> read_u32_raw t addr
  | Some r -> armed_read t r addr ~u64:false enc4 (fun () -> read_u32_raw t addr)

let write_u32 t addr v =
  match t.recorder.sink with
  | None -> write_u32_raw t addr v
  | Some r ->
      armed_write t r addr (fun () -> enc4 v) (fun () -> write_u32_raw t addr v)

let read_u64 t addr =
  match t.recorder.sink with
  | None -> read_u64_raw t addr
  | Some r -> armed_read t r addr ~u64:true enc8 (fun () -> read_u64_raw t addr)

let write_u64 t addr v =
  match t.recorder.sink with
  | None -> write_u64_raw t addr v
  | Some r ->
      armed_write t r addr (fun () -> enc8 v) (fun () -> write_u64_raw t addr v)

let read_into t addr buf pos len =
  match t.recorder.sink with
  | None -> read_into_raw t addr buf pos len
  | Some r ->
      armed_read t r addr ~u64:false
        (fun () -> Bytes.sub buf pos len)
        (fun () -> read_into_raw t addr buf pos len)

(* [probe] is advisory, not an access: it answers "would this access be
   allowed right now" for policy decisions (e.g. priv_for_tag).  It walks
   the page table directly — never the TLB, which it must not pollute —
   charges nothing. *)
let probe t ~addr ~len access =
  let rec loop a remaining =
    remaining <= 0
    ||
    match Pagetable.find t.pt ~vpn:(vpn_of a) with
    | None -> false
    | Some pte ->
        let p = pte.Pagetable.prot in
        let ok =
          match access with
          | Read -> p.Prot.pr
          | Write -> p.Prot.pw || p.Prot.pcow
        in
        ok
        &&
        let chunk = min remaining (page_size - off_of a) in
        loop (a + chunk) (remaining - chunk)
  in
  loop addr len

(* The translations [blit_read_pages] makes, without the copy. *)
let rec translate_read_pages t addr len =
  if len > 0 then begin
    let chunk = min len (page_size - off_of addr) in
    ignore (page_for t addr Read);
    translate_read_pages t (addr + chunk) (len - chunk)
  end

(* A checked read of the range without the copy: the same translations
   in the same order, so it faults where the copy would, and an armed
   recorder sees the same [Ev_fault]. *)
let fault_read t addr len =
  let walk () = translate_read_pages t addr len in
  match t.recorder.sink with
  | None -> walk ()
  | Some r -> armed_read t r addr ~u64:false (fun () -> Bytes.empty) walk

(* The buffer is sized only once the length is known to be in range: a
   bad one faults inside [read_into] with nothing allocated for it.  Nor
   is one allocated for a range of more than one page that the
   charge-free [probe] finds unreadable: [fault_read] takes the copy's
   own fault instead.  Only a cached translation that outlived its page
   table entry, which the oracle reports as a missed shootdown, could
   let that walk finish; the copy then runs as usual. *)
let read_bytes t addr len =
  if read_len_ok len && off_of addr + len > page_size && not (probe t ~addr ~len Read) then
    fault_read t addr len;
  let buf = Bytes.create (if read_len_ok len then len else 0) in
  read_into t addr buf 0 len;
  buf

let write_bytes t addr src =
  match t.recorder.sink with
  | None -> write_bytes_raw t addr src
  | Some r ->
      armed_write t r addr
        (fun () -> Bytes.copy src)
        (fun () -> write_bytes_raw t addr src)

(* ------------------------------------------------------------------ *)
(* Oracle accessors: pure reads of ground truth for invariant checking.
   Nothing here charges the clock or touches the TLB. *)

(* Validate every *servable* TLB entry (valid vpn, current epoch — stale
   epochs can never be served) against the page table: same frame,
   protection and tag as filled.  (An entry holds no bytes to check:
   every access resolves them through [Physmem].)  Any disagreement is a
   revocation that failed to shoot an entry down — a default-deny
   bypass. *)
let tlb_check t =
  let epoch = Pagetable.epoch t.pt in
  let bad = ref [] in
  let report fmt = Printf.ksprintf (fun m -> bad := m :: !bad) fmt in
  Array.iter
    (fun e ->
      if e.e_vpn >= 0 && e.e_epoch = epoch then
        match Pagetable.find t.pt ~vpn:e.e_vpn with
        | None ->
            report "pid %d: TLB entry for unmapped vpn 0x%x (frame %d)" t.pid e.e_vpn
              e.e_frame
        | Some pte ->
            if pte.Pagetable.frame <> e.e_frame then
              report "pid %d: TLB vpn 0x%x caches frame %d but pte has %d" t.pid e.e_vpn
                e.e_frame pte.Pagetable.frame
            else begin
              if pte.Pagetable.prot <> e.e_prot then
                report "pid %d: TLB vpn 0x%x caches stale protection" t.pid e.e_vpn;
              if pte.Pagetable.tag <> e.e_tag then
                report "pid %d: TLB vpn 0x%x caches stale tag" t.pid e.e_vpn
            end)
    t.tlb;
  List.rev !bad

module For_testing = struct
  let can_read t ~addr ~len = probe t ~addr ~len Read
end
