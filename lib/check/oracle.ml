(* Invariant oracles over kernel ground truth.

   An oracle is wired to sync points — every context switch
   ([Fiber.run ~on_switch]) and/or every system call entry
   ([Kernel.on_syscall]) — and re-derives, from first principles, the
   bookkeeping the kernel maintains incrementally:

     - every physical frame's refcount equals the number of independent
       holders (page-table mappings across all address spaces, the
       pristine snapshot, live tag registries, the tag cache);
     - every quota-tracked process's rlimit charges equal its live
       private frames and open descriptors, and every charged vpn is
       actually mapped;
     - every servable TLB entry agrees with the page table it caches;
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
module Rlimit = Wedge_kernel.Rlimit
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

let check_refcounts t =
  let expected = Hashtbl.create 512 in
  let add frame =
    Hashtbl.replace expected frame
      (1 + match Hashtbl.find_opt expected frame with Some n -> n | None -> 0)
  in
  (* Every process still in the table holds one reference per mapping
     (reap removes the process after releasing them). *)
  Kernel.iter_processes t.kernel (fun p ->
      Pagetable.iter (fun _ pte -> add pte.Pagetable.frame) (Vm.page_table p.Process.vm));
  (match t.app with
  | None -> ()
  | Some app ->
      List.iter (fun (_, frame) -> add frame) app.Engine.pristine;
      List.iter
        (fun (tag : Tag.t) -> Array.iter add tag.Tag.frames)
        (Tag.live_tags app.Engine.tags);
      List.iter
        (fun (e : Tag_cache.entry) -> List.iter add e.Tag_cache.frames)
        (Tag_cache.entries app.Engine.tag_cache);
      (* Frozen snapshot-pool images are pristine-like holders: each page
         pins its frame with exactly one reference from freeze until
         discard, independent of how many stamped children map it. *)
      List.iter
        (fun (im : Engine.image) ->
          List.iter (fun (fz : Engine.frozen_page) -> add fz.Engine.fz_frame) im.Engine.im_pages)
        app.Engine.frozen_images);
  Physmem.iter_live t.kernel.Kernel.pm (fun frame refs ->
      let want = match Hashtbl.find_opt expected frame with Some n -> n | None -> 0 in
      if refs <> want then
        violation
          "oracle: frame %d refcount %d but %d holders (mappings + pristine + tags + \
           cache + frozen images)"
          frame refs want;
      Hashtbl.remove expected frame);
  (* Anything left expected a live frame that no longer exists. *)
  Hashtbl.iter
    (fun frame n -> violation "oracle: %d holders reference dead frame %d" n frame)
    expected

(* ------------------------------------------------------------------ *)
(* Rlimit charges == live private frames and descriptors               *)

let check_rlimits t =
  Kernel.iter_processes t.kernel (fun p ->
      let vm = p.Process.vm in
      let pt = Vm.page_table vm in
      (* Every charged vpn must be mapped, quota or not: [owned] is the
         release ledger, and an unmapped entry is a unit that can never
         be released. *)
      List.iter
        (fun vpn ->
          if not (Pagetable.mem pt ~vpn) then
            violation "oracle: pid %d owns unmapped vpn 0x%x" p.Process.pid vpn)
        (Vm.owned_vpns vm);
      if Vm.quota_tracked vm && not (Rlimit.is_unlimited p.Process.limits) then begin
        let charged = Rlimit.frames_used p.Process.limits in
        let live = Vm.owned_count vm in
        if charged <> live then
          violation "oracle: pid %d charged %d frame units but owns %d private frames"
            p.Process.pid charged live;
        let fds_charged = Rlimit.fds_used p.Process.limits in
        let fds_live = Fd_table.count p.Process.fds in
        if fds_charged <> fds_live then
          violation "oracle: pid %d charged %d fd units but holds %d descriptors"
            p.Process.pid fds_charged fds_live
      end)

(* ------------------------------------------------------------------ *)
(* TLB entries agree with page-table ground truth                      *)

let check_tlbs t =
  Kernel.iter_processes t.kernel (fun p ->
      match Vm.tlb_check p.Process.vm with
      | [] -> ()
      | msg :: _ -> violation "oracle: %s" msg)

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

(* A frozen page recorded copy-on-write must never be writable in any
   address space: a stamped child's write is required to COW-break onto
   a private frame, so finding the image's frame behind a [pw] pte means
   a stamp (or a break) scribbled on the checkpoint every future stamp
   restores from.  Tagged pages are exempt — they freeze with their
   grant protection because tag memory is shared-mutable by design. *)
let check_frozen t =
  match t.app with
  | None | Some { Engine.frozen_images = []; _ } -> ()
  | Some app ->
      (* One pass over every mapping against the set of frozen COW
         frames: images are frozen on first use by every server, so this
         runs on every sweep. *)
      let cow = Hashtbl.create 256 in
      List.iter
        (fun (im : Engine.image) ->
          List.iter
            (fun (fz : Engine.frozen_page) ->
              if fz.Engine.fz_prot.Prot.pcow then
                Hashtbl.replace cow fz.Engine.fz_frame im.Engine.im_name)
            im.Engine.im_pages)
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
  check_rlimits t;
  check_tlbs t;
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
   per step; a stride samples every [n]th switch instead.  7 by default:
   prime, so the sample never phase-locks with periodic fiber patterns
   (client loops, accept polling) and every interleaving class is
   eventually observed. *)
let hook ?(stride = 7) t =
  if stride <= 0 then invalid_arg "Oracle.hook: stride <= 0";
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
