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
  | Ev_read of { pid : int; addr : int; value : bytes; kernel : bool; u64 : bool }
  | Ev_write of { pid : int; addr : int; value : bytes; kernel : bool }
  | Ev_fault of {
      pid : int;
      addr : int;  (* the faulting address, not the access start *)
      access : access;
      reason : string;
      kernel : bool;
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
   hashtable walk, no fault roll per byte.  An entry caches the frame,
   never its bytes: every access resolves the bytes through [Physmem]
   (the read view for reads, the write view for writes), so a frame's
   first write — which moves it off the shared zero page onto private
   bytes — is seen at once through every other address space's warm
   entry for that frame, with no sharer list and no extra shootdown.
   Safety comes from two mechanisms:
     - every entry is stamped with the page table's epoch at fill time,
       so any map/unmap invalidates the whole cache with one compare;
     - in-place pte mutations (protect_range, COW breaks, tag retags) do
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

type t = {
  pid : int;
  pm : Physmem.t;
  pt : Pagetable.t;
  clock : Clock.t;
  costs : Cost_model.t;
  faults : Wedge_fault.Fault_plan.t option;
  limits : Rlimit.t option;
  trace : Wedge_sim.Trace.t;
      (* instrumented off the fast path only: misses and shootdowns, not
         hits — an armed trace never slows the hit path *)
  owned : (int, unit) Hashtbl.t;
      (* vpns whose frames were charged to [limits]: fresh mappings and
         private COW copies.  Shared mappings (pristine snapshot, tag
         grants) are never charged — the quota bounds private frames.
         It starts at 8 buckets: a compartment owns only the pages it
         writes, and the table grows with them. *)
  recorder : recorder;
  tlb : tlb_entry array;
  mutable tlb_hit_n : int;
  mutable tlb_miss_n : int;
  mutable tlb_shootdown_n : int;
}

let create ?faults ?limits ?(trace = Wedge_sim.Trace.null) ?recorder ~pid pm clock
    costs =
  {
    pid;
    pm;
    pt = Pagetable.create ();
    clock;
    costs;
    faults;
    limits;
    trace;
    owned = Hashtbl.create 8;
    recorder = (match recorder with Some r -> r | None -> { sink = None; raised = None });
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

(* Quota accounting for private frames.  The charge happens before the
   allocation so exhaustion is deterministic and leaves physical memory
   untouched; [Rlimit.Resource_exhausted] is contained by the engine the
   same way Enomem is.  Returns whether a fresh charge was made: a vpn
   already owned (a COW break of a page this space itself allocated, e.g.
   after a fork downgraded it) must not be charged twice — the quota
   counts live private frames, and unmap releases exactly one unit per
   owned vpn. *)
let charge_owned t vpn =
  if Hashtbl.mem t.owned vpn then false
  else begin
    (match t.limits with Some l -> Rlimit.charge_frames l 1 | None -> ());
    Hashtbl.replace t.owned vpn ();
    true
  end

let release_owned t vpn =
  if Hashtbl.mem t.owned vpn then begin
    Hashtbl.remove t.owned vpn;
    match t.limits with Some l -> Rlimit.release_frames l 1 | None -> ()
  end

(* Charge-then-allocate, with the charge rolled back if the allocation
   itself fails (budget exhaustion or an injected ENOMEM): otherwise the
   quota would keep counting a private frame that never existed — a drift
   the invariant oracles flag — and, for a never-mapped vpn, the unit
   could never be released at all. *)
let alloc_charged t vpn =
  let charged = charge_owned t vpn in
  match Physmem.alloc t.pm with
  | frame -> frame
  | exception e ->
      if charged then release_owned t vpn;
      raise e

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
    let frame = alloc_charged t vpn in
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

type frozen_page = {
  fz_vpn : int;
  fz_frame : int;
  fz_prot : Prot.page;
  fz_tag : int option;
}

(* A snapshot: its page records, and the read-only page table built from
   them once, which every address space restored from it maps through
   (see [Pagetable.base]).  The records stay as the ground truth the
   table is checked against. *)
type image = {
  pages : frozen_page list;
  table : Pagetable.base;
}

let image pages =
  {
    pages;
    table =
      Pagetable.base
        (List.map
           (fun fz ->
             ( fz.fz_vpn,
               { Pagetable.frame = fz.fz_frame; prot = fz.fz_prot; tag = fz.fz_tag } ))
           pages);
  }

let image_pages im = im.pages
let image_table im = im.table
let image_size im = Pagetable.base_count im.table

(* Install a snapshot: the address space points at the image's one shared
   table — the simulated analogue of pointing a child at a prepared
   pagetable subtree — so nothing is copied or allocated per page, and no
   cost is charged here (each caller charges what its spawn variant
   costs).  Each page still takes one frame reference, so refcounts,
   COW breaks ([refcount > 1]) and an image's discard behave exactly as
   if the entries had been copied.  Recorder events are emitted per page:
   a differential reference VM must see these mappings exactly like any
   other, or COW breaks inside a stamped child would diverge. *)
let map_image t im =
  Pagetable.set_base t.pt im.table;
  List.iter
    (fun { fz_vpn = vpn; fz_frame = frame; fz_prot = prot; _ } ->
      Physmem.incref t.pm frame;
      if recording t then
        emit t
          (Ev_map
             {
               pid = t.pid;
               vpn;
               frame;
               prot;
               seed = Some (Bytes.copy (Physmem.get t.pm frame));
             }))
    im.pages

let share_range ~src ~dst ~addr ~pages ~prot =
  check_aligned addr;
  for i = 0 to pages - 1 do
    let vpn = vpn_of addr + i in
    match Pagetable.find src.pt ~vpn with
    | None ->
        invalid_arg
          (Printf.sprintf "Vm.share_range: source page 0x%x unmapped" (vpn * page_size))
    | Some pte ->
        Pagetable.map dst.pt ~vpn ~frame:pte.Pagetable.frame ~prot ~tag:pte.Pagetable.tag;
        Clock.charge dst.clock dst.costs.Cost_model.pte_copy;
        Physmem.incref dst.pm pte.Pagetable.frame;
        if recording dst then
          emit dst
            (Ev_map
               {
                 pid = dst.pid;
                 vpn;
                 frame = pte.Pagetable.frame;
                 prot;
                 seed = Some (Bytes.copy (Physmem.get dst.pm pte.Pagetable.frame));
               })
  done

let unmap_range t ~addr ~pages =
  check_aligned addr;
  for i = 0 to pages - 1 do
    (* The epoch bump from Pagetable.unmap already invalidates every
       cached entry; the explicit shootdown keeps the counter and the
       cost model honest about what a revocation did. *)
    tlb_invalidate t ~vpn:(vpn_of addr + i);
    match Pagetable.unmap t.pt ~vpn:(vpn_of addr + i) with
    | Some pte ->
        release_owned t (vpn_of addr + i);
        Physmem.decref t.pm pte.Pagetable.frame;
        if recording t then emit t (Ev_unmap { pid = t.pid; vpn = vpn_of addr + i })
    | None -> ()
  done

(* Every in-place rewrite below takes its pte through
   [Pagetable.find_private]: an entry seen through a shared image table
   is copied into this address space's own table first, so the rewrite
   never reaches the image or the siblings restored from it. *)

(* Permission changes mutate ptes in place — no epoch movement — so the
   explicit per-page shootdown here is what keeps revocation sound: a TLB
   entry surviving this loop would let a compartment keep writing through
   a mapping that was just downgraded.  Each mapped page charges a
   pte_copy-class cost (the kernel rewrites the entry), plus the shootdown
   cost for any translation that was actually cached. *)
let protect_range t ~addr ~pages ~prot =
  check_aligned addr;
  for i = 0 to pages - 1 do
    match Pagetable.find_private t.pt ~vpn:(vpn_of addr + i) with
    | Some pte ->
        Clock.charge t.clock t.costs.Cost_model.pte_copy;
        pte.Pagetable.prot <- prot;
        tlb_invalidate t ~vpn:(vpn_of addr + i);
        if recording t then emit t (Ev_prot { pid = t.pid; vpn = vpn_of addr + i; prot })
    | None -> ()
  done

(* In-place pte rewrites for kernel bookkeeping (boot's COW snapshot,
   fork's COW downgrade, boundary retags).  No cost is charged — callers
   account for their own PTE work — but the shootdown is mandatory:
   these are exactly the "behind the VM's back" mutations that used to
   touch the page table directly. *)
let set_page_prot t ~addr ~prot =
  match Pagetable.find_private t.pt ~vpn:(vpn_of addr) with
  | Some pte ->
      pte.Pagetable.prot <- prot;
      tlb_invalidate t ~vpn:(vpn_of addr);
      if recording t then emit t (Ev_prot { pid = t.pid; vpn = vpn_of addr; prot })
  | None -> invalid_arg (Printf.sprintf "Vm.set_page_prot: 0x%x unmapped" addr)

let set_page_tag t ~addr ~tag =
  match Pagetable.find_private t.pt ~vpn:(vpn_of addr) with
  | Some pte ->
      pte.Pagetable.tag <- tag;
      tlb_invalidate t ~vpn:(vpn_of addr)
  | None -> invalid_arg (Printf.sprintf "Vm.set_page_tag: 0x%x unmapped" addr)

(* Every owned vpn is mapped, so the teardown releases the whole quota
   charge at once. *)
let destroy t =
  tlb_flush t;
  Pagetable.iter (fun _ pte -> Physmem.decref t.pm pte.Pagetable.frame) t.pt;
  Pagetable.clear t.pt;
  (match t.limits with
  | Some l -> Rlimit.release_frames l (Hashtbl.length t.owned)
  | None -> ());
  Hashtbl.clear t.owned;
  if recording t then emit t (Ev_destroy { pid = t.pid })

let mapped_pages t = Pagetable.count t.pt

(* Take a private copy of a COW page so it can be written.  The copy is a
   private frame, so it counts against the frame quota (a compartment
   ballooning the shared pristine image pays for every page it dirties).
   The frame swap happens in place — no epoch movement — so the explicit
   shootdown below is what stops a cached read entry from serving the old
   shared frame's bytes after the break.  Returns the page's (now
   private) pte. *)
let cow_break t ~vpn =
  let pte = Option.get (Pagetable.find_private t.pt ~vpn) in
  Clock.charge t.clock t.costs.Cost_model.page_copy;
  if Physmem.refcount t.pm pte.frame > 1 then begin
    let fresh = alloc_charged t vpn in
    Bytes.blit (Physmem.get t.pm pte.frame) 0 (Physmem.get_mut t.pm fresh) 0 page_size;
    Physmem.decref t.pm pte.frame;
    pte.frame <- fresh
  end;
  pte.prot <- { pr = true; pw = true; pcow = false };
  tlb_invalidate t ~vpn;
  if recording t then
    emit t (Ev_cow { pid = t.pid; vpn; frame = pte.frame; prot = pte.prot });
  pte

(* The slow path: one page-table walk.  Injected faults are rolled by the
   callers, once per access (see [roll_access]), not here — a bulk read
   is one access however many pages it crosses. *)
let pte_for t addr access check =
  let vpn = vpn_of addr in
  match Pagetable.find t.pt ~vpn with
  | None -> fault t addr access "unmapped page"
  | Some pte -> (
      let p = pte.Pagetable.prot in
      match access with
      | Read ->
          if check && not p.Prot.pr then fault t addr Read "no read permission";
          pte
      | Write ->
          if p.Prot.pw then pte
          else if p.Prot.pcow then cow_break t ~vpn
          else if check then fault t addr Write "no write permission"
          else if Physmem.refcount t.pm pte.Pagetable.frame > 1 then begin
            (* Kernel writes still must not corrupt shared frames. *)
            let pte = cow_break t ~vpn in
            pte.Pagetable.prot <- p;
            if recording t then emit t (Ev_prot { pid = t.pid; vpn; prot = p });
            pte
          end
          else pte)

(* Can a cached entry serve this access?  Reads need pr (kernel reads are
   exempt, as in the slow path); writes need pw exactly — a COW page must
   fall through to the slow path so the break happens. *)
let perm_hit access check (p : Prot.page) =
  match access with
  | Read -> p.Prot.pr || not check
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
let page_for t addr access check =
  let vpn = addr lsr 12 in
  let e = Array.unsafe_get t.tlb (vpn land tlb_mask) in
  if e.e_vpn = vpn && e.e_epoch = Pagetable.epoch t.pt && perm_hit access check e.e_prot
  then begin
    t.tlb_hit_n <- t.tlb_hit_n + 1;
    Clock.charge t.clock t.costs.Cost_model.tlb_hit;
    frame_bytes t access e.e_frame
  end
  else begin
    t.tlb_miss_n <- t.tlb_miss_n + 1;
    Clock.charge t.clock t.costs.Cost_model.tlb_miss;
    Wedge_sim.Trace.instant t.trace ~name:"tlb.miss" ~pid:t.pid;
    let pte = pte_for t addr access check in
    tlb_fill t vpn pte;
    frame_bytes t access pte.Pagetable.frame
  end

(* Checked (compartment) accesses roll the injected-fault plan once per
   access — a u64 or a 4 KiB blit is one roll, not eight or a thousand.
   (Fault-trace format v2: plans recorded against the per-byte rolls of
   the v1 accessors replay with different op counts.)  Kernel paths never
   roll, mirroring how a real MMU cannot fault the kernel's copies. *)
let roll_access t addr access =
  match Wedge_fault.Fault_plan.roll_opt t.faults ~site:"vm.access" with
  | Some _ -> fault t addr access "injected protection fault"
  | None -> ()

let read_u8_raw t addr =
  roll_access t addr Read;
  let b = page_for t addr Read true in
  Char.code (Bytes.unsafe_get b (addr land (page_size - 1)))

let write_u8_raw t addr v =
  roll_access t addr Write;
  let b = page_for t addr Write true in
  Bytes.unsafe_set b (addr land (page_size - 1)) (Char.unsafe_chr (v land 0xff))

(* Page-cursor bulk transfer: one translation per page touched, shared by
   checked and kernel paths.  The fault roll (if any) happened at the
   access entry point. *)
let rec blit_read_pages t addr buf pos len check =
  if len > 0 then begin
    let off = off_of addr in
    let chunk = min len (page_size - off) in
    let b = page_for t addr Read check in
    Bytes.blit b off buf pos chunk;
    blit_read_pages t (addr + chunk) buf (pos + chunk) (len - chunk) check
  end

let rec blit_write_pages t addr src pos len check =
  if len > 0 then begin
    let off = off_of addr in
    let chunk = min len (page_size - off) in
    let b = page_for t addr Write check in
    Bytes.blit src pos b off chunk;
    blit_write_pages t (addr + chunk) src (pos + chunk) (len - chunk) check
  end

(* Multi-page writes are atomic: every page is translated (and any COW
   break taken) before the first byte lands, so a fault on page N+1 never
   leaves a partial write on page N.  The probe pass warms the TLB, so
   the copy pass runs entirely on hits. *)
let rec probe_write_pages t addr len check =
  if len > 0 then begin
    let off = off_of addr in
    let chunk = min len (page_size - off) in
    ignore (page_for t addr Write check);
    probe_write_pages t (addr + chunk) (len - chunk) check
  end

let blit_write_atomic t addr src pos len check =
  if len > 0 then begin
    if off_of addr + len > page_size then probe_write_pages t addr len check;
    blit_write_pages t addr src pos len check
  end

(* Bound checked bulk reads before allocating the destination: a
   compromised compartment that fabricates a huge length (e.g. in a
   length-value block a callgate will read) must hit a protection fault,
   not force the host to allocate gigabytes first.  64 MiB is far beyond
   any simulated address-space region. *)
let max_read = 64 * 1024 * 1024

let read_len_ok len = len >= 0 && len <= max_read

(* Every argument is checked before the fault roll or any translation:
   a bad length faults as the MMU would, a range outside [buf] is the
   caller's bug. *)
let read_into_raw t addr buf pos len =
  if not (read_len_ok len) then
    fault t addr Read (Printf.sprintf "oversized read of %d bytes" len);
  if pos < 0 || pos > Bytes.length buf - len then invalid_arg "Vm.read_into";
  if len > 0 then begin
    roll_access t addr Read;
    blit_read_pages t addr buf pos len true
  end

let write_bytes_raw t addr src =
  let len = Bytes.length src in
  if len > 0 then begin
    roll_access t addr Write;
    blit_write_atomic t addr src 0 len true
  end

let write_bytes_kernel_raw t addr src = blit_write_atomic t addr src 0 (Bytes.length src) false

(* Multi-byte accessors: translate once when the value sits inside a page
   (the overwhelmingly common case), fall back to the page cursor across
   a boundary.  Either way: one fault roll, not one per byte. *)

let read_u16_raw t addr =
  roll_access t addr Read;
  let off = off_of addr in
  if off <= page_size - 2 then Bytes.get_uint16_le (page_for t addr Read true) off
  else begin
    let buf = Bytes.create 2 in
    blit_read_pages t addr buf 0 2 true;
    Bytes.get_uint16_le buf 0
  end

let write_u16_raw t addr v =
  roll_access t addr Write;
  let off = off_of addr in
  if off <= page_size - 2 then Bytes.set_uint16_le (page_for t addr Write true) off (v land 0xffff)
  else begin
    let buf = Bytes.create 2 in
    Bytes.set_uint16_le buf 0 (v land 0xffff);
    blit_write_atomic t addr buf 0 2 true
  end

let read_u32_raw t addr =
  roll_access t addr Read;
  let off = off_of addr in
  if off <= page_size - 4 then
    Int32.to_int (Bytes.get_int32_le (page_for t addr Read true) off) land 0xffffffff
  else begin
    let buf = Bytes.create 4 in
    blit_read_pages t addr buf 0 4 true;
    Int32.to_int (Bytes.get_int32_le buf 0) land 0xffffffff
  end

let write_u32_raw t addr v =
  roll_access t addr Write;
  let off = off_of addr in
  if off <= page_size - 4 then
    Bytes.set_int32_le (page_for t addr Write true) off (Int32.of_int v)
  else begin
    let buf = Bytes.create 4 in
    Bytes.set_int32_le buf 0 (Int32.of_int v);
    blit_write_atomic t addr buf 0 4 true
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
  roll_access t addr Read;
  let off = off_of addr in
  if off <= page_size - 8 then Int64.to_int (Bytes.get_int64_le (page_for t addr Read true) off)
  else begin
    let buf = Bytes.create 8 in
    blit_read_pages t addr buf 0 8 true;
    Int64.to_int (Bytes.get_int64_le buf 0)
  end

let write_u64_raw t addr v =
  roll_access t addr Write;
  let w = Int64.logand (Int64.of_int v) u64_store_mask in
  let off = off_of addr in
  if off <= page_size - 8 then Bytes.set_int64_le (page_for t addr Write true) off w
  else begin
    let buf = Bytes.create 8 in
    Bytes.set_int64_le buf 0 w;
    blit_write_atomic t addr buf 0 8 true
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

let enc2 v =
  let b = Bytes.create 2 in
  Bytes.set_uint16_le b 0 (v land 0xffff);
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

let armed_read t r addr ~kernel ~u64 enc f =
  match f () with
  | v ->
      record t.recorder r (Ev_read { pid = t.pid; addr; value = enc v; kernel; u64 });
      v
  | exception Fault ft ->
      record t.recorder r
        (Ev_fault { pid = t.pid; addr = ft.addr; access = Read; reason = ft.reason; kernel });
      raise (Fault ft)

let armed_write t r addr ~kernel enc f =
  match f () with
  | () -> record t.recorder r (Ev_write { pid = t.pid; addr; value = enc (); kernel })
  | exception Fault ft ->
      record t.recorder r
        (Ev_fault { pid = t.pid; addr = ft.addr; access = Write; reason = ft.reason; kernel });
      raise (Fault ft)

let read_u8 t addr =
  match t.recorder.sink with
  | None -> read_u8_raw t addr
  | Some r -> armed_read t r addr ~kernel:false ~u64:false enc1 (fun () -> read_u8_raw t addr)

let write_u8 t addr v =
  match t.recorder.sink with
  | None -> write_u8_raw t addr v
  | Some r ->
      armed_write t r addr ~kernel:false (fun () -> enc1 v) (fun () -> write_u8_raw t addr v)

let read_u16 t addr =
  match t.recorder.sink with
  | None -> read_u16_raw t addr
  | Some r -> armed_read t r addr ~kernel:false ~u64:false enc2 (fun () -> read_u16_raw t addr)

let write_u16 t addr v =
  match t.recorder.sink with
  | None -> write_u16_raw t addr v
  | Some r ->
      armed_write t r addr ~kernel:false (fun () -> enc2 v) (fun () -> write_u16_raw t addr v)

let read_u32 t addr =
  match t.recorder.sink with
  | None -> read_u32_raw t addr
  | Some r -> armed_read t r addr ~kernel:false ~u64:false enc4 (fun () -> read_u32_raw t addr)

let write_u32 t addr v =
  match t.recorder.sink with
  | None -> write_u32_raw t addr v
  | Some r ->
      armed_write t r addr ~kernel:false (fun () -> enc4 v) (fun () -> write_u32_raw t addr v)

let read_u64 t addr =
  match t.recorder.sink with
  | None -> read_u64_raw t addr
  | Some r -> armed_read t r addr ~kernel:false ~u64:true enc8 (fun () -> read_u64_raw t addr)

let write_u64 t addr v =
  match t.recorder.sink with
  | None -> write_u64_raw t addr v
  | Some r ->
      armed_write t r addr ~kernel:false (fun () -> enc8 v) (fun () -> write_u64_raw t addr v)

let read_into t addr buf pos len =
  match t.recorder.sink with
  | None -> read_into_raw t addr buf pos len
  | Some r ->
      armed_read t r addr ~kernel:false ~u64:false
        (fun () -> Bytes.sub buf pos len)
        (fun () -> read_into_raw t addr buf pos len)

(* The buffer is sized only once the length is known to be in range: a
   bad one faults inside [read_into] with nothing allocated for it. *)
let read_bytes t addr len =
  let buf = Bytes.create (if read_len_ok len then len else 0) in
  read_into t addr buf 0 len;
  buf

let write_bytes t addr src =
  match t.recorder.sink with
  | None -> write_bytes_raw t addr src
  | Some r ->
      armed_write t r addr ~kernel:false
        (fun () -> Bytes.copy src)
        (fun () -> write_bytes_raw t addr src)

let write_bytes_kernel t addr src =
  match t.recorder.sink with
  | None -> write_bytes_kernel_raw t addr src
  | Some r ->
      armed_write t r addr ~kernel:true
        (fun () -> Bytes.copy src)
        (fun () -> write_bytes_kernel_raw t addr src)

(* ------------------------------------------------------------------ *)
(* Oracle accessors: pure reads of ground truth for invariant checking.
   Nothing here charges the clock, touches the TLB, or rolls faults. *)

let owned_count t = Hashtbl.length t.owned
let owned_vpns t = List.sort compare (Hashtbl.fold (fun v () acc -> v :: acc) t.owned [])
let quota_tracked t = t.limits <> None

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

(* [probe] is advisory, not an access: it answers "would this access be
   allowed right now" for policy decisions (e.g. priv_for_tag).  It walks
   the page table directly — never the TLB, which it must not pollute —
   charges nothing, and rolls no injected faults: a spurious fault on a
   probe would turn a question into a crash, which no real MMU does. *)
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

let can_read t ~addr ~len = probe t ~addr ~len Read
let can_write t ~addr ~len = probe t ~addr ~len Write
