(* Compartment checkpoint/restore: freeze a fully-booted worker image
   once, stamp new compartments out of it in O(1).

   [freeze] builds a template worker the expensive way — a [Boot]
   sthread from [Engine.build], pristine snapshot installed, grants
   resolved, optionally a [warm] body run so lazily-mapped private pages
   (heap, stack) exist — then checkpoints the template's entire address
   space: private writable pages are recorded copy-on-write (the image
   must never change again), and [Vm.image] builds the one read-only
   page table and takes one frame reference per page, held by the image
   for all its users, and the template is reaped.  The table is two
   vpn-sorted arrays made in one merge ([Pagetable.snapshot]) of the
   template's few own entries into its pristine base, whose records the
   image shares as they are (both are copy-on-write and untagged, and no
   base is ever written).  What survives is an
   [Engine.image]: the frozen pages, their table and references, the
   captured descriptor table and the identity — no process, no address
   space.  The registry is the image's first holder; every stamped
   address space is another until it is reaped.

   [Engine.Stamp image] is the paper's Figure 7/8 story taken further
   than recycled callgates: an sthread or callgate invocation whose
   address space maps the frozen image through that shared table,
   installed by the engine's one builder at one flat [pool_stamp]
   charge, however many pages the image holds.  The host cost is flat
   too: a stamp and its reap allocate and reference nothing per image
   page.

   Both paths are attackable: fault sites ["pool.freeze"] and
   ["pool.stamp"] inject mid-operation, and the unwind must leave the
   frozen image pristine and every refcount and holder count clean —
   which the [lib/check] refcount oracle re-derives (each image counts
   its pages once; its holders are its registration plus the address
   spaces that map it) across explored schedules. *)

module Trace = Wedge_sim.Trace
module Kernel = Wedge_kernel.Kernel
module Vm = Wedge_kernel.Vm
module Prot = Wedge_kernel.Prot
module Process = Wedge_kernel.Process
module Fd_table = Wedge_kernel.Fd_table
module Pagetable = Wedge_kernel.Pagetable
module Physmem = Wedge_kernel.Physmem
module Layout = Wedge_kernel.Layout

let page_size = Physmem.page_size

type t = Engine.image

let find app name =
  List.find_opt (fun (im : t) -> im.Engine.im_name = name) app.Engine.frozen_images

(* ------------------------------------------------------------------ *)
(* Freeze                                                              *)

let freeze ?(name = "pool") ?warm parent (sc : Sc.t) =
  let app = parent.Engine.app in
  if not (Engine.booted app) then invalid_arg "Pool.freeze: application not booted";
  if find app name <> None then
    invalid_arg (Printf.sprintf "Pool.freeze: image %S already frozen" name);
  Engine.enter parent "sthread_create";
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
  let fail e =
    Engine.stat parent "pool.freeze.fault";
    ignore (finish ());
    raise e
  in
  let uid, root, sid = Engine.resolve_identity parent sc in
  (* The template pays the full fork-priced boot exactly once — that is
     the checkpoint's whole bargain. *)
  let template =
    match
      Engine.build app ~kind:Process.Sthread ~uid ~root ~sid ~spawn:Engine.Boot ~fds:[]
        ~tags:[] ~src:parent.Engine.proc.Process.fds sc
    with
    | template -> template
    | exception e -> fail e
  in
  match
    (* Mid-freeze fault site: the template exists and holds references,
       so the unwind below must release every one of them. *)
    Engine.roll_site app "pool.freeze";
    (match warm with
    | None -> ()
    | Some body ->
        (* Run the warm-up body in the template so demand-mapped private
           pages (heap, stack) become part of the frozen image. *)
        let tctx = Engine.make_ctx app template sc parent.Engine.instr in
        body tctx);
    (* Checkpoint: every mapped page, in vpn order so the image (and
       every artifact derived from it) is deterministic.  Untagged
       writable pages freeze copy-on-write — a stamped child that writes
       one breaks into a private copy, never onto the image.  Tagged
       pages keep their grant protection: tag memory is shared-mutable
       by design, and COW-ing it would silently unshare the very
       channels compartments communicate over.  The template's pristine
       entries are already copy-on-write and untagged, so the image
       shares their records; only its own few are copied. *)
    let pt = Vm.page_table template.Process.vm in
    let vpns, ptes =
      Pagetable.snapshot pt ~prot:(fun (pte : Pagetable.pte) ->
          if pte.Pagetable.prot.Prot.pw && pte.Pagetable.tag = None then Prot.page_cow
          else pte.Pagetable.prot)
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
      im_pages = Vm.image app.Engine.kernel.Kernel.pm vpns ptes;
      im_fds = fds;
      im_uid = uid;
      im_root = root;
      im_sid = sid;
      im_heap = Pagetable.mem pt ~vpn:(Layout.heap_base / page_size);
      im_stack = Pagetable.mem pt ~vpn:(Layout.stack_base / page_size);
      im_live = true;
    }
  with
  | exception e ->
      (* Unwind: no image was built, so the template's address space
         holds the only references taken so far; reaping it releases
         them all and the world is as if freeze was never called. *)
      Engine.unwind app template e;
      fail e
  | image ->
      template.Process.status <- Process.Exited 0;
      Kernel.reap app.Engine.kernel template;
      app.Engine.frozen_images <- image :: app.Engine.frozen_images;
      app.Engine.pool_freezes <- app.Engine.pool_freezes + 1;
      Engine.trace_instant parent "pool.frozen";
      finish image

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
    (* The registry leaves the image's holders.  With no stamped child
       alive, that drops the image's references; else the last child's
       reap does, and until then the children keep mapping through the
       image's table, which nothing writes. *)
    Vm.release_image pool.Engine.im_pages
  end
