(* Invariant oracles over kernel ground truth.

   An oracle is wired to sync points — every context switch
   ([Fiber.run ~on_switch]) and/or every system call entry
   ([Kernel.on_syscall]) — and re-derives, from first principles, the
   bookkeeping the kernel maintains incrementally:

     - every physical frame's refcount equals the number of independent
       holders (each address space's own page-table entries, each image
       in use, live tag registries, the tag cache), and every image's
       holder count equals its registration plus the address spaces that
       map through it;
     - every servable TLB entry agrees with the page table it caches;
     - the kernel's shared zero page, which backs every frame never
       written, still reads all zeros;
     - the pristine snapshot's and every frozen image's shared page
       table still hold the records they were built from;
     - every smalloc segment (live tags, per-process heaps) has intact
       boundary tags and a sound free list;
     - every registered admission guard's O(1) counters agree with its
       connection list;
     - the scheduler's interest sets agree with its parked table
       ([Fiber.audit]: no lost wakeup, no waiter on a dead set, no parked
       fiber without a registration).

   Everything here reads ground truth directly — page-table walks and
   raw frame bytes, never checked [Vm] accessors — so a check charges no
   simulated time, pollutes no TLB, and rolls no injected faults: the
   schedule under test is not perturbed by being watched. *)

module Kernel = Wedge_kernel.Kernel
module Physmem = Wedge_kernel.Physmem
module Pagetable = Wedge_kernel.Pagetable
module Prot = Wedge_kernel.Prot
module Process = Wedge_kernel.Process
module Fd_table = Wedge_kernel.Fd_table
module Layout = Wedge_kernel.Layout
module Vm = Wedge_kernel.Vm
module Tag = Wedge_mem.Tag
module Tag_cache = Wedge_mem.Tag_cache
module Smalloc = Wedge_mem.Smalloc
module Engine = Wedge_core.Engine
module Guard = Wedge_net.Guard

exception Violation of string

let violation fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt

type t = {
  kernel : Kernel.t;
  mutable app : Engine.app option;
  mutable guards : (string * Guard.t) list;
  mutable custom : (string * (unit -> string option)) list;
  mutable checks : int;
}

let create kernel = { kernel; app = None; guards = []; custom = []; checks = 0 }
let set_app t app = t.app <- Some app
let add_guard t ?(name = "guard") g = t.guards <- (name, g) :: t.guards
let add_invariant t ~name f = t.custom <- (name, f) :: t.custom
let checks_run t = t.checks

(* ------------------------------------------------------------------ *)
(* Raw readers: ground truth without the MMU's side effects            *)

let page_size = Physmem.page_size

(* Replicates [Vm.read_u64]'s decode (low 63 bits of the LE word) so the
   walks below see exactly what compartment code would. *)
let frame_u64 pm frame off = Int64.to_int (Bytes.get_int64_le (Physmem.get pm frame) off)

(* Read through a tag's own frame array — ground truth independent of any
   process's mappings, so a deleted grant or a corrupted page table can
   never hide segment damage from the walk.  Smalloc bookkeeping is
   8-aligned, so a word never straddles frames. *)
let tag_reader pm (tag : Tag.t) addr =
  let off = addr - tag.Tag.base in
  if off < 0 || off >= Array.length tag.Tag.frames * page_size then
    violation "oracle: smalloc walk escaped tag %s (id %d) at 0x%x" tag.Tag.name
      tag.Tag.id addr;
  frame_u64 pm tag.Tag.frames.(off / page_size) (off mod page_size)

(* Read through a process's page table (no TLB, no clock, no faults). *)
let vm_reader pm vm addr =
  match Pagetable.find (Vm.page_table vm) ~vpn:(addr / page_size) with
  | None ->
      violation "oracle: pid %d smalloc walk hit unmapped page at 0x%x" (Vm.pid vm)
        addr
  | Some pte -> frame_u64 pm pte.Pagetable.frame (addr mod page_size)

(* ------------------------------------------------------------------ *)
(* Frame refcounts == sum of independent holders                       *)

(* An image in use, with the holders it must count: its registration (the
   app's pristine snapshot, or a frozen image until discard) plus every
   live address space whose table uses it as base. *)
type image_use = { im : Vm.image; what : string; mutable want : int }

let check_refcounts t =
  let expected = Hashtbl.create 512 in
  let add frame =
    Hashtbl.replace expected frame
      (1 + match Hashtbl.find_opt expected frame with Some n -> n | None -> 0)
  in
  let images = ref [] in
  let note ~what ~held im =
    match List.find_opt (fun u -> u.im == im) !images with
    | Some u -> u.want <- u.want + held
    | None -> images := { im; what = what (); want = held } :: !images
  in
  (match t.app with
  | None -> ()
  | Some app ->
      note ~what:(fun () -> "pristine snapshot") ~held:1 app.Engine.pristine;
      List.iter
        (fun (im : Engine.image) ->
          note ~what:(fun () -> "frozen image " ^ im.Engine.im_name) ~held:1 im.Engine.im_pages)
        app.Engine.frozen_images;
      List.iter
        (fun (tag : Tag.t) -> Array.iter add tag.Tag.frames)
        (Tag.live_tags app.Engine.tags);
      List.iter
        (fun (e : Tag_cache.entry) -> List.iter add e.Tag_cache.frames)
        (Tag_cache.entries app.Engine.tag_cache));
  (* Every process still in the table holds one reference per entry of
     its own (reap removes the process after releasing them), and one
     hold on the image it maps through, whose pages it does not count. *)
  Kernel.iter_processes t.kernel (fun p ->
      let vm = p.Process.vm in
      Pagetable.iter_own (fun _ pte -> add pte.Pagetable.frame) (Vm.page_table vm);
      Option.iter
        (note
           ~what:(fun () -> Printf.sprintf "unregistered image mapped by pid %d" p.Process.pid)
           ~held:1)
        (Vm.mapped_image vm));
  (* Each image in use holds one reference per page, however many
     holders it has: pristine, frozen, or discarded but still mapped. *)
  List.iter
    (fun u ->
      let holders = Vm.image_holders u.im in
      if holders <> u.want then
        violation "oracle: %s has %d holders but %d are registered or map it" u.what holders
          u.want;
      Vm.image_iter u.im (fun ~vpn:_ ~frame ~prot:_ ~tag:_ -> add frame))
    !images;
  Physmem.iter_live t.kernel.Kernel.pm (fun frame refs ->
      let want = match Hashtbl.find_opt expected frame with Some n -> n | None -> 0 in
      if refs <> want then
        violation
          "oracle: frame %d refcount %d but %d holders (own mappings + images + tags + cache)"
          frame refs want;
      Hashtbl.remove expected frame);
  (* Anything left expected a live frame that no longer exists. *)
  Hashtbl.iter
    (fun frame n -> violation "oracle: %d holders reference dead frame %d" n frame)
    expected

(* ------------------------------------------------------------------ *)
(* TLB entries agree with page-table ground truth                      *)

let check_tlbs t =
  Kernel.iter_processes t.kernel (fun p ->
      match Vm.tlb_check p.Process.vm with
      | [] -> ()
      | msg :: _ -> violation "oracle: %s" msg)

(* ------------------------------------------------------------------ *)
(* The shared zero page stays zero                                     *)

(* Every unwritten frame reads through the one zero page, so a single
   write through [Physmem.get] (the read view) to an unwritten frame
   would show up in all of them at once. *)
let check_zero_page t =
  if not (Physmem.zero_page_clean t.kernel.Kernel.pm) then
    violation "oracle: the zero page is dirty (a write went through Physmem.get)"

(* ------------------------------------------------------------------ *)
(* Smalloc segment integrity (tags and private heaps)                  *)

let check_smalloc t =
  match t.app with
  | None -> ()
  | Some app ->
      let pm = t.kernel.Kernel.pm in
      List.iter
        (fun (tag : Tag.t) ->
          let read = tag_reader pm tag in
          if Array.length tag.Tag.frames > 0 && Smalloc.is_segment ~read ~base:tag.Tag.base
          then
            try Smalloc.check_reader ~read ~base:tag.Tag.base
            with Invalid_argument msg ->
              violation "oracle: tag %s (id %d): %s" tag.Tag.name tag.Tag.id msg)
        (Tag.live_tags app.Engine.tags);
      Kernel.iter_processes t.kernel (fun p ->
          if Process.is_alive p then begin
            let vm = p.Process.vm in
            let base = Layout.heap_base in
            if Pagetable.mem (Vm.page_table vm) ~vpn:(base / page_size) then begin
              let read = vm_reader pm vm in
              if Smalloc.is_segment ~read ~base then
                try Smalloc.check_reader ~read ~base
                with Invalid_argument msg ->
                  violation "oracle: pid %d heap: %s" p.Process.pid msg
            end
          end)

(* ------------------------------------------------------------------ *)
(* Frozen snapshot images stay immutable                               *)

(* A snapshot's shared page table is never written after it is built:
   every address space restored from it must see exactly the records it
   was built from.  An entry that drifted — a write's COW break, a
   protection change or a retag that reached the shared table instead of
   a private copy — would leak into every sibling and every later
   spawn. *)
let check_table what im =
  let table = Vm.image_table im in
  if Pagetable.base_count table <> Vm.image_size im then
    violation "oracle: %s page table holds %d entries, built from %d" what
      (Pagetable.base_count table) (Vm.image_size im);
  Vm.image_iter im (fun ~vpn ~frame ~prot ~tag ->
      match Pagetable.base_find table ~vpn with
      | None -> violation "oracle: %s page table lost vpn 0x%x" what vpn
      | Some pte ->
          if pte.Pagetable.frame <> frame || pte.Pagetable.prot <> prot || pte.Pagetable.tag <> tag
          then
            violation "oracle: %s page table maps vpn 0x%x to frame %d (%s), built as %d (%s)"
              what vpn pte.Pagetable.frame
              (Prot.page_to_string pte.Pagetable.prot)
              frame (Prot.page_to_string prot))

let check_tables t =
  match t.app with
  | None -> ()
  | Some app ->
      check_table "pristine snapshot" app.Engine.pristine;
      List.iter
        (fun (im : Engine.image) ->
          check_table ("frozen image " ^ im.Engine.im_name) im.Engine.im_pages)
        app.Engine.frozen_images

(* A frozen page recorded copy-on-write must never be writable in any
   address space: a stamped child's write is required to COW-break onto
   a private frame, so finding the image's frame behind a [pw] pte means
   a stamp (or a break) scribbled on the checkpoint every future stamp
   restores from.  Tagged pages are exempt — they freeze with their
   grant protection because tag memory is shared-mutable by design.
   First, every shared table must still match its records. *)
let check_frozen t =
  check_tables t;
  match t.app with
  | None | Some { Engine.frozen_images = []; _ } -> ()
  | Some app ->
      (* One pass over every mapping against the set of frozen COW
         frames: images are frozen on first use by every server, so this
         runs on every sweep. *)
      let cow = Hashtbl.create 256 in
      List.iter
        (fun (im : Engine.image) ->
          Vm.image_iter im.Engine.im_pages (fun ~vpn:_ ~frame ~prot ~tag:_ ->
              if prot.Prot.pcow then Hashtbl.replace cow frame im.Engine.im_name))
        app.Engine.frozen_images;
      Kernel.iter_processes t.kernel (fun p ->
          Pagetable.iter
            (fun vpn (pte : Pagetable.pte) ->
              if pte.Pagetable.prot.Prot.pw then
                match Hashtbl.find_opt cow pte.Pagetable.frame with
                | Some name ->
                    violation
                      "oracle: frozen image %s frame %d mapped writable at vpn 0x%x by pid \
                       %d (stamp broke the image's COW)"
                      name pte.Pagetable.frame vpn p.Process.pid
                | None -> ())
            (Vm.page_table p.Process.vm))

(* ------------------------------------------------------------------ *)

let check_guards t =
  List.iter
    (fun (name, g) ->
      match Guard.self_check g with
      | None -> ()
      | Some msg -> violation "oracle: %s: %s" name msg)
    t.guards

let check_interest () =
  match Wedge_sim.Fiber.audit () with
  | None -> ()
  | Some msg -> violation "oracle: %s" msg

let check_custom t =
  List.iter
    (fun (name, f) ->
      match f () with None -> () | Some msg -> violation "oracle: %s: %s" name msg)
    t.custom

let check t =
  t.checks <- t.checks + 1;
  check_refcounts t;
  check_tlbs t;
  check_zero_page t;
  check_smalloc t;
  check_frozen t;
  check_guards t;
  check_interest ();
  check_custom t

(* The cluster-wide sweep for a sharded world: each kernel owns its own
   physical memory — frames never cross shard boundaries — so the global
   frame-refcount invariant is the conjunction of every shard's full
   sweep (failures labelled with the kernel's shard id) plus the one
   genuinely cross-shard fact: a deleted global tag has no live replica
   on any shard ([Wedge_net.Shard.self_check], passed as [fabric]). *)
let global_sweep ?fabric ts =
  List.iter
    (fun t ->
      try check t
      with Violation msg -> violation "shard %d: %s" t.kernel.Kernel.shard msg)
    ts;
  match fabric with
  | None -> ()
  | Some fab -> (
      match Wedge_net.Shard.self_check fab with
      | None -> ()
      | Some msg -> violation "global sweep: %s" msg)

(* ------------------------------------------------------------------ *)
(* Wiring                                                              *)

(* Checking at literally every context switch is O(frames + mappings)
   per step; the hook samples every 7th switch instead: prime, so the
   sample never phase-locks with periodic fiber patterns (client loops,
   accept polling) and every interleaving class is eventually
   observed. *)
let stride = 7

let hook t =
  let n = ref 0 in
  fun () ->
    incr n;
    if !n mod stride = 0 then check t
let install_syscall_hook t = t.kernel.Kernel.on_syscall <- Some (fun _name -> check t)
let remove_syscall_hook t = t.kernel.Kernel.on_syscall <- None

(* What a master holds for its connections.  Every per-connection
   callgate, descriptor and tag is released when its connection ends, so
   once a drain leaves no connection active the master must be back at
   what it held before it served: the next leak fails exploration
   instead of surfacing as heap growth under load. *)
type holdings = { h_gates : int; h_fds : int; h_tags : int }

let holdings (app : Engine.app) =
  {
    h_gates = Hashtbl.length app.Engine.gates;
    h_fds = Fd_table.count (Engine.main_ctx app).Engine.proc.Process.fds;
    h_tags = List.length (Engine.live_tags app);
  }

let check_returned ~what app before =
  let h = holdings app in
  if h <> before then
    violation
      "%s: master holds %d callgates, %d descriptors, %d tags after the drain; %d, %d, %d \
       before serving"
      what h.h_gates h.h_fds h.h_tags before.h_gates before.h_fds before.h_tags
