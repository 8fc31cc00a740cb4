(* Compartment checkpoint/restore: freeze a fully-booted worker image
   once, stamp new sthreads out of it in O(1).

   [freeze] builds a template worker the expensive way — pristine
   snapshot mapped page by page, grants resolved, optionally a [warm]
   body run so lazily-mapped private pages (heap, stack) exist — then
   checkpoints the template's entire address space: every frame gets one
   extra Physmem reference held by the image, private writable pages are
   recorded copy-on-write (the image must never change again), and the
   template is reaped.  What survives is an [Engine.image]: the frozen
   pages, built once here so no stamp rebuilds them, the captured
   descriptor table, the rlimit shape and the identity — no process, no
   address space.

   [stamp] is the paper's Figure 7/8 story taken further than recycled
   callgates: a new sthread whose address space is the frozen image
   bulk-installed by [Engine.install_image] at one flat [pool_stamp]
   charge, however many pages the image holds.  Per-connection grants
   ride in through [extra] (validated against the stamping parent like
   any sc), so the O(1) cost is in the image size, not in the
   constant-sized per-request policy.  [sc_cgate_add] registers a
   callgate whose every invocation is a fresh compartment installed by
   the same routine.

   Both paths are attackable: fault sites ["pool.freeze"] and
   ["pool.stamp"] inject mid-operation, and the unwind must leave the
   frozen image pristine and every refcount clean — which the
   [lib/check] refcount oracle re-derives (frozen images count as
   pristine-like owners) across explored schedules. *)

module Clock = Wedge_sim.Clock
module Cost_model = Wedge_sim.Cost_model
module Trace = Wedge_sim.Trace
module Kernel = Wedge_kernel.Kernel
module Vm = Wedge_kernel.Vm
module Prot = Wedge_kernel.Prot
module Process = Wedge_kernel.Process
module Fd_table = Wedge_kernel.Fd_table
module Pagetable = Wedge_kernel.Pagetable
module Physmem = Wedge_kernel.Physmem
module Layout = Wedge_kernel.Layout
module Rlimit = Wedge_kernel.Rlimit
module Fault_plan = Wedge_fault.Fault_plan

let page_size = Physmem.page_size

type t = Engine.image

let name (t : t) = t.Engine.im_name
let frozen_pages (t : t) = List.length t.Engine.im_pages
let is_live (t : t) = t.Engine.im_live

let find app name =
  List.find_opt (fun (im : t) -> im.Engine.im_name = name) app.Engine.frozen_images

let roll_site app site =
  match Fault_plan.roll_opt app.Engine.kernel.Kernel.faults ~site with
  | Some (Fault_plan.Delay ns) -> Clock.charge app.Engine.kernel.Kernel.clock ns
  | Some k -> Fault_plan.fail ~site k
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Freeze                                                              *)

let freeze ?(name = "pool") ?warm parent (sc : Sc.t) =
  let app = parent.Engine.app in
  if not (Engine.booted app) then invalid_arg "Pool.freeze: application not booted";
  if find app name <> None then
    invalid_arg (Printf.sprintf "Pool.freeze: image %S already frozen" name);
  Kernel.syscall_check app.Engine.kernel parent.Engine.proc "sthread_create";
  Engine.stat parent "pool.freeze";
  Engine.validate_sc parent sc;
  let tr = Engine.ktrace parent in
  if Trace.enabled tr then
    Trace.span_begin tr ~name:"pool.freeze" ~pid:(Engine.pid parent);
  let finish v =
    if Trace.enabled tr then
      Trace.span_end tr ~name:"pool.freeze" ~pid:(Engine.pid parent);
    v
  in
  let uid, root, sid = Engine.resolve_identity parent sc in
  let limits = Engine.resolve_limits parent sc in
  (* The template pays the full fork-priced boot exactly once — that is
     the checkpoint's whole bargain. *)
  let template =
    Kernel.new_process app.Engine.kernel ~limits ~kind:Process.Sthread ~uid ~root ~sid ()
  in
  match
    Engine.map_pristine app template.Process.vm;
    Engine.map_grants parent template sc;
    (* Mid-freeze fault site: the template exists and holds references,
       so the unwind below must release every one of them. *)
    roll_site app "pool.freeze";
    (match warm with
    | None -> ()
    | Some body ->
        (* Run the warm-up body in the template so demand-mapped private
           pages (heap, stack) become part of the frozen image. *)
        let tctx = Engine.make_ctx app template sc parent.Engine.instr in
        body tctx);
    (* Checkpoint: every mapped page, sorted by vpn so the image (and
       every artifact derived from it) is deterministic.  Untagged
       writable pages freeze copy-on-write — a stamped child that writes
       one breaks into a private copy, never onto the image.  Tagged
       pages keep their grant protection: tag memory is shared-mutable
       by design, and COW-ing it would silently unshare the very
       channels compartments communicate over. *)
    let pt = Vm.page_table template.Process.vm in
    let entries =
      Pagetable.fold (fun vpn (pte : Pagetable.pte) acc -> (vpn, pte) :: acc) pt []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    let pm = app.Engine.kernel.Kernel.pm in
    let pages =
      List.map
        (fun (vpn, (pte : Pagetable.pte)) ->
          Physmem.incref pm pte.Pagetable.frame;
          let prot =
            if pte.Pagetable.prot.Prot.pw && pte.Pagetable.tag = None then
              Prot.page_cow
            else pte.Pagetable.prot
          in
          {
            Engine.fz_vpn = vpn;
            fz_frame = pte.Pagetable.frame;
            fz_prot = prot;
            fz_tag = pte.Pagetable.tag;
          })
        entries
    in
    let fds =
      List.filter_map
        (fun fd ->
          Option.map
            (fun e -> (fd, e.Fd_table.target, e.Fd_table.perm))
            (Fd_table.find template.Process.fds fd))
        (Fd_table.fds template.Process.fds)
    in
    {
      Engine.im_name = name;
      im_pages = pages;
      im_fds = fds;
      im_limits = Option.value sc.Sc.limits ~default:parent.Engine.proc.Process.limits;
      im_uid = uid;
      im_root = root;
      im_sid = sid;
      im_heap = Pagetable.mem pt ~vpn:(Layout.heap_base / page_size);
      im_stack = Pagetable.mem pt ~vpn:(Layout.stack_base / page_size);
      im_live = true;
    }
  with
  | exception e ->
      (* Unwind: the template's address space holds the only references
         taken so far; reaping it releases them all and the world is as
         if freeze was never called. *)
      template.Process.status <-
        Process.Faulted
          (match Engine.fault_reason e with Some r -> r | None -> "freeze failed");
      Kernel.reap app.Engine.kernel template;
      Engine.stat parent "pool.freeze.fault";
      ignore (finish ());
      raise e
  | image ->
      template.Process.status <- Process.Exited 0;
      Kernel.reap app.Engine.kernel template;
      app.Engine.frozen_images <- image :: app.Engine.frozen_images;
      app.Engine.pool_freezes <- app.Engine.pool_freezes + 1;
      Engine.trace_instant parent "pool.frozen";
      finish image

(* ------------------------------------------------------------------ *)
(* Stamp                                                               *)

(* Map the per-invocation extras on top of the image, skipping anything
   the image already provides (same dedup rule as callgate extras). *)
let map_extra_grants parent (child : Process.t) (extra : Sc.t) =
  let app = parent.Engine.app in
  let cm = app.Engine.kernel.Kernel.costs in
  let clock = app.Engine.kernel.Kernel.clock in
  List.iter
    (fun { Sc.tag; grant } ->
      if
        not
          (Pagetable.mem
             (Vm.page_table child.Process.vm)
             ~vpn:(tag.Wedge_mem.Tag.base / page_size))
      then begin
        let prot = Prot.page_of_grant grant in
        Array.iteri
          (fun i frame ->
            Clock.charge clock cm.Cost_model.pte_copy;
            Vm.map_frame child.Process.vm
              ~addr:(tag.Wedge_mem.Tag.base + (i * page_size))
              ~frame ~prot ~tag:(Some tag.Wedge_mem.Tag.id))
          tag.Wedge_mem.Tag.frames
      end)
    extra.Sc.mems;
  List.iter
    (fun { Sc.fd; perm } ->
      if Fd_table.find child.Process.fds fd = None then begin
        Clock.charge clock cm.Cost_model.fd_dup;
        Fd_table.dup_into ~src:parent.Engine.proc.Process.fds ~dst:child.Process.fds
          ~fd ~perm
      end)
    extra.Sc.fds

let stamp ?instr ?extra parent (pool : t) fn arg =
  if not pool.Engine.im_live then invalid_arg "Pool.stamp: image discarded";
  let app = parent.Engine.app in
  if not (List.memq pool app.Engine.frozen_images) then
    invalid_arg "Pool.stamp: parent from another app";
  Kernel.syscall_check app.Engine.kernel parent.Engine.proc "sthread_create";
  app.Engine.pool_stamps <- app.Engine.pool_stamps + 1;
  Engine.stat parent "pool.stamp";
  let extra = match extra with Some e -> e | None -> Sc.create () in
  Engine.validate_sc parent extra;
  let tr = Engine.ktrace parent in
  if Trace.enabled tr then
    Trace.span_begin tr ~name:"pool.stamp" ~pid:(Engine.pid parent);
  let finish v =
    if Trace.enabled tr then
      Trace.span_end tr ~name:"pool.stamp" ~pid:(Engine.pid parent);
    v
  in
  (* Identity and limits come from the frozen image unless the extras
     override them (already validated against the stamping parent). *)
  let uid = Option.value extra.Sc.uid ~default:pool.Engine.im_uid in
  let root = Option.value extra.Sc.root ~default:pool.Engine.im_root in
  let sid = Option.value extra.Sc.sid ~default:pool.Engine.im_sid in
  let limits = Rlimit.child_of (Option.value extra.Sc.limits ~default:pool.Engine.im_limits) in
  let kernel = app.Engine.kernel in
  let child = Kernel.new_process kernel ~limits ~kind:Process.Sthread ~uid ~root ~sid () in
  match
    (* The restore: the whole image lands for one flat charge — spawn
       cost independent of address-space size. *)
    Engine.install_image app child pool;
    (* Mid-stamp fault site: pages are mapped (references taken) but the
       descriptor table is not yet populated — the unwind must return
       every reference and leave the frozen image untouched. *)
    roll_site app "pool.stamp";
    List.iter
      (fun (fd, target, perm) ->
        Clock.charge kernel.Kernel.clock kernel.Kernel.costs.Cost_model.fd_dup;
        Fd_table.install child.Process.fds ~fd target perm)
      pool.Engine.im_fds;
    map_extra_grants parent child extra
  with
  | exception e ->
      (match Engine.fault_reason e with
      | Some reason ->
          child.Process.status <- Process.Faulted reason;
          Engine.stat parent "pool.stamp.fault";
          Engine.trace_instant parent "pool.stamp.fault"
      | None -> child.Process.status <- Process.Faulted "stamp failed");
      (* Reap releases the child's quota charges and its per-page frame
         references; the image's own references are untouched. *)
      Kernel.reap kernel child;
      ignore (finish ());
      raise e
  | () ->
      app.Engine.pool_hits <- app.Engine.pool_hits + 1;
      let cctx =
        Engine.image_ctx app child pool extra (Option.value instr ~default:parent.Engine.instr)
      in
      Engine.trace_instant cctx "pool.stamped";
      let handle = { Engine.h_proc = child; h_result = None } in
      handle.Engine.h_result <- Engine.run_compartment cctx fn arg;
      Kernel.reap kernel child;
      finish handle

let sc_cgate_add pool creator sc ~name ~entry ~cgsc ~trusted =
  Engine.sc_cgate_add ~spawn:(Engine.Stamp pool) creator sc ~name ~entry ~cgsc ~trusted

(* ------------------------------------------------------------------ *)
(* Discard                                                             *)

let discard parent (pool : t) =
  if pool.Engine.im_live then begin
    let app = parent.Engine.app in
    if not (List.memq pool app.Engine.frozen_images) then
      invalid_arg "Pool.discard: parent from another app";
    pool.Engine.im_live <- false;
    Engine.stat parent "pool.discard";
    Engine.trace_instant parent "pool.discard";
    app.Engine.frozen_images <- List.filter (fun im -> im != pool) app.Engine.frozen_images;
    (* Dropping the image's references frees any frame no live address
       space still maps; frames shared with running stamped children
       survive on their references and die with their last unmap (which
       goes through the Vm teardown/shootdown path as usual). *)
    let pm = app.Engine.kernel.Kernel.pm in
    List.iter
      (fun (fz : Engine.frozen_page) -> Physmem.decref pm fz.Engine.fz_frame)
      pool.Engine.im_pages
  end
