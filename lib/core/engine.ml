(* The Wedge engine: applications, sthreads, callgates and tagged memory on
   top of the simulated kernel.  This module holds the mutually recursive
   types (a callgate entry receives a ctx; a ctx belongs to an app that
   stores callgates); the thin public modules [Sthread], [Callgate] and
   [Wedge] re-export groups of these operations. *)

module Clock = Wedge_sim.Clock
module Cost_model = Wedge_sim.Cost_model
module Stats = Wedge_sim.Stats
module Trace = Wedge_sim.Trace
module Metrics = Wedge_sim.Metrics
module Instr = Wedge_sim.Instr
module Kernel = Wedge_kernel.Kernel
module Vm = Wedge_kernel.Vm
module Prot = Wedge_kernel.Prot
module Process = Wedge_kernel.Process
module Fd_table = Wedge_kernel.Fd_table
module Vfs = Wedge_kernel.Vfs
module Layout = Wedge_kernel.Layout
module Selinux = Wedge_kernel.Selinux
module Physmem = Wedge_kernel.Physmem
module Pagetable = Wedge_kernel.Pagetable
module Tag = Wedge_mem.Tag
module Smalloc = Wedge_mem.Smalloc
module Tag_cache = Wedge_mem.Tag_cache
module Fault_plan = Wedge_fault.Fault_plan
module Fiber = Wedge_sim.Fiber

exception Privilege_violation of string
exception Exit_sthread of int

exception Heap_corruption of string
(* What [sfree] raises when the allocator's pointer validation rejects a
   wild or corrupted chunk: the glibc-abort analogue.  A hostile peer
   compartment can scribble over shared tagged memory, so the victim
   detecting the damage at free time must die contained (SIGABRT), not
   crash the application as a programming error. *)

(* The named fault classes — the simulated SIGSEGV/SIGKILL family: an
   environmental condition, not a programming error.  A compartment dies
   contained of any exception ([run_compartment]); this class names the
   reason, and outside it a death is counted as [fault.unexpected].  The
   master's own calls guard their setup with it, so there everything
   else (including [Privilege_violation], a policy bug in the caller)
   propagates.  Layers above this one (wedge_net, invisible from here)
   register their own classes at module initialisation: a refused
   connection, for instance, or a cut heart read in the master. *)
let extra_fault_classes : (exn -> string option) list ref = ref []
let register_fault_class f = extra_fault_classes := f :: !extra_fault_classes

let fault_reason e =
  match e with
  | Vm.Fault f -> Some (Vm.fault_to_string f)
  | Kernel.Eperm msg -> Some msg
  | Physmem.Enomem -> Some "out of memory"
  | Fault_plan.Injected msg -> Some msg
  | Heap_corruption msg -> Some msg
  (* A watchdog-cancelled fiber dies contained, like a SIGKILLed hung
     worker: the hang was detected and cut, not a programming error. *)
  | Fiber.Cancelled msg -> Some msg
  | _ -> List.find_map (fun f -> f e) !extra_fault_classes

let page_size = Physmem.page_size

type gate_id = int

(* An installed declarative profile (see [Wedge_crowbar.Synth]): the
   loader attaches one of these to a compartment's ctx at creation, and
   the engine consults it on every data access, descriptor operation and
   callgate invocation.  A hook returns [Some msg] when the operation
   exceeds the installed profile; the engine then raises
   [Privilege_violation msg], which kills the compartment contained
   (the sandbox working, not a monitor bug).  Complain-mode hooks log
   and return [None], so nothing is denied. *)
type policy_check = {
  pol_mem : addr:int -> len:int -> write:bool -> string option;
  pol_fd : fd:int -> write:bool -> string option;
  pol_gate : string -> string option;
}

type boundary_section = {
  b_id : int;
  b_name : string;
  b_base : int;
  b_pages : int;
  mutable b_tag : Tag.t option;
}

(* A frozen compartment image (what [Pool.freeze] builds): its pages and
   their shared page table, the descriptor-table and identity shape a
   stamped sthread starts from, and whether it carries a demand-mapped
   heap or stack.  The registry lives on the app — not in
   [Pool] — so the invariant oracles can re-derive frame refcounts and
   image holders (the registry is one of each image's holders) without a
   dependency on the pool module, and so a stamped callgate can be
   installed from one here. *)
type image = {
  im_name : string;
  im_pages : Vm.image;  (* the registry is one holder *)
  im_fds : (int * Fd_table.target * Fd_table.perm) list;
  im_uid : int;
  im_root : string;
  im_sid : string;
  im_heap : bool;
  im_stack : bool;
  mutable im_live : bool;
}

(* How a compartment gets its address space: a fork-priced boot of the
   pristine snapshot, a recycled gate's long-lived member (§3.3; an
   sthread boots), or a stamp of a frozen image for one flat
   [pool_stamp] charge. *)
type spawn = Boot | Recycle | Stamp of image

(* Where a takeover lands: the app's original process, or the n-th
   sthread or forked child the app starts after arming. *)
type where = Master | Child of int

type app = {
  kernel : Kernel.t;
  layout : Layout.t;
  tags : Tag.registry;
  tag_cache : Tag_cache.t;
  gates : (gate_id, gate) Hashtbl.t;
  mutable next_gate : gate_id;
  mutable boundaries : boundary_section list;
  mutable data_pages : int;  (* image pages + boundary pages *)
  image_pages : int;
  mutable booted : bool;
  mutable pristine : Vm.image;  (* the app is one holder *)
  mutable main : ctx option;
  recycled_pool : (string, member list) Hashtbl.t;
      (* idle long-lived sthreads backing recycled callgates, keyed by
         gate name so they survive per-connection gate re-instantiation;
         a member serving a call is out of its list until the call ends *)
  mutable frozen_images : image list;
      (* frozen snapshot-pool images, newest first; the registry holds
         each image until it is discarded *)
  mutable pool_freezes : int;
  mutable pool_stamps : int;  (* stamp attempts, including faulted ones *)
  mutable pool_hits : int;  (* stamps that produced a running compartment *)
  mutable on_tag_delete : (Tag.t -> unit) option;
      (* fires after [tag_delete] finishes the local revocation (every
         address space of THIS kernel unmapped, frames released, tag
         dead).  The shard fabric hangs its cross-shard TLB-shootdown
         broadcast here; the hook runs in the deleter's fiber and may
         yield/park while it waits for remote acks. *)
  mutable armed : takeover list;  (* armed takeovers, in arming order *)
}

(* One armed payload (see [takeover]).  Its target is known once
   [tk_children] more children have started, and it fires once
   [tk_entries] more of the target's kernel entries have passed. *)
and takeover = {
  tk_payload : ctx -> unit;
  mutable tk_proc : Process.t option;
  mutable tk_children : int;
  mutable tk_entries : int;
}

and member = {
  m_ctx : ctx;
  mutable m_sc : Sc.t;  (* the gate grants currently mapped into it *)
}

and gate = {
  g_id : gate_id;
  g_name : string;
  g_entry : ctx -> trusted:int -> arg:int -> int;
  g_sc : Sc.t;  (* permissions fixed and validated at creation *)
  g_trusted : int;  (* kernel-held trusted argument *)
  g_minter : int;  (* pid that performed sc_cgate_add *)
  g_uid : int;  (* identity inherited from the creator, not the caller *)
  g_root : string;
  g_sid : string;
  g_spawn : spawn;
  g_fds : (int * Fd_table.target * Fd_table.perm) list;
      (* descriptor grants resolved against the creator at creation time,
         so a caller without network access cannot influence (and need not
         hold) the gate's descriptors *)
}

and ctx = {
  app : app;
  proc : Process.t;
  sc : Sc.t;  (* the effective grants this compartment was created with *)
  mutable instr : Instr.t;
  mutable policy : policy_check option;
      (* an installed declarative profile (Crowbar synthesis loader):
         checked on every data access, descriptor operation and callgate
         invocation of THIS compartment *)
  mutable smalloc_tag : Tag.t option;  (* smalloc_on state (per sthread) *)
  mutable heap_ready : bool;
  mutable stack_ready : bool;
  mutable stack_sp : int;
  mutable caller_pid : int option;
      (* during a callgate invocation, the pid of the invoking sthread
         (kernel-provided, like SO_PEERCRED) *)
}

type handle = {
  h_proc : Process.t;
  mutable h_result : int option;
}

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)

let costs ctx = ctx.app.kernel.Kernel.costs
let clock ctx = ctx.app.kernel.Kernel.clock
let charge ctx ns = Clock.charge (clock ctx) ns
let stat ctx name = Stats.bump ctx.app.kernel.Kernel.stats name
let kernel app = app.kernel
let app_of ctx = ctx.app
let proc ctx = ctx.proc
let pid ctx = ctx.proc.Process.pid
let ktrace ctx = ctx.app.kernel.Kernel.trace

(* Record an instant against the caller's pid; the single [enabled]
   branch is the entire disabled-path cost, so callers pass only
   pre-built names here (dynamic names must guard themselves). *)
let trace_instant ctx name =
  let tr = ktrace ctx in
  if Trace.enabled tr then Trace.instant tr ~name ~pid:ctx.proc.Process.pid
let getuid ctx = ctx.proc.Process.uid
let booted app = app.booted
let violation fmt = Printf.ksprintf (fun s -> raise (Privilege_violation s)) fmt

(* An installed profile said no: counted, visible in the kernel trace,
   then the standard policy exception, which kills the compartment
   contained like any other. *)
let policy_deny ctx msg =
  stat ctx "policy.deny";
  trace_instant ctx "policy.violation";
  raise (Privilege_violation msg)

let check_policy_fd ctx fd ~write =
  match ctx.policy with
  | None -> ()
  | Some p -> (
      match p.pol_fd ~fd ~write with
      | None -> ()
      | Some msg -> policy_deny ctx msg)

let check_policy_gate ctx name =
  match ctx.policy with
  | None -> ()
  | Some p -> (
      match p.pol_gate name with
      | None -> ()
      | Some msg -> policy_deny ctx msg)

(* ------------------------------------------------------------------ *)
(* Kernel entry and the takeover point                                 *)

(* The armed takeovers that target [ctx]'s process count this entry; one
   whose count has run out is disarmed, then runs its payload.  One whose
   target has exited short of its entry is disarmed too. *)
let fire ctx armed =
  let disarm tk = ctx.app.armed <- List.filter (fun t -> t != tk) ctx.app.armed in
  List.iter
    (fun tk ->
      match tk.tk_proc with
      | Some p when p == ctx.proc ->
          if tk.tk_entries > 0 then tk.tk_entries <- tk.tk_entries - 1
          else begin
            disarm tk;
            tk.tk_payload ctx
          end
      | Some p when not (Process.is_alive p) -> disarm tk
      | _ -> ())
    armed

(* Every system call of every compartment enters here: the kernel's
   trap and SELinux checks, then the takeover point, then the
   call's own work.  Unarmed, the point is one branch and allocates
   nothing. *)
let enter ctx name =
  Kernel.syscall_check ctx.app.kernel ctx.proc name;
  match ctx.app.armed with [] -> () | armed -> fire ctx armed

(* A new sthread or forked child: the takeovers still waiting for their
   target count it. *)
let started app (child : Process.t) =
  match app.armed with
  | [] -> ()
  | armed ->
      List.iter
        (fun tk ->
          match tk.tk_proc with
          | Some _ -> ()
          | None when tk.tk_children > 0 -> tk.tk_children <- tk.tk_children - 1
          | None -> tk.tk_proc <- Some child)
        armed

(* ------------------------------------------------------------------ *)
(* Application setup                                                   *)

let default_image_pages = 300  (* a minimal process: libc + loader + globals *)

let make_ctx app proc sc instr =
  {
    app;
    proc;
    sc;
    instr;
    policy = None;
    smalloc_tag = None;
    heap_ready = false;
    stack_ready = false;
    stack_sp = Layout.stack_base + (Layout.stack_pages * page_size);
    caller_pid = None;
  }

let create_app ?(image_pages = default_image_pages) kernel =
  let app =
    {
      kernel;
      layout = Layout.create ();
      tags = Tag.registry_create ();
      tag_cache = Tag_cache.create kernel.Kernel.pm;
      gates = Hashtbl.create 16;
      next_gate = 1;
      boundaries = [];
      data_pages = image_pages;
      image_pages;
      booted = false;
      pristine = Vm.image kernel.Kernel.pm [||] [||];
      main = None;
      recycled_pool = Hashtbl.create 8;
      frozen_images = [];
      pool_freezes = 0;
      pool_stamps = 0;
      pool_hits = 0;
      on_tag_delete = None;
      armed = [];
    }
  in
  let proc = Kernel.new_process kernel ~kind:Process.Main ~uid:0 ~root:"/" ~sid:"system_u:system_r:init_t" () in
  Vm.map_fresh proc.Process.vm ~addr:Layout.data_base ~pages:image_pages
    ~prot:Prot.page_rw ~tag:None;
  let ctx = make_ctx app proc (Sc.create ()) Instr.null in
  app.main <- Some ctx;
  app

let main_ctx app =
  match app.main with
  | Some c -> c
  | None -> invalid_arg "Engine.main_ctx: application torn down"

let takeover app ~where ~at payload =
  let tk_proc, tk_children =
    match where with Master -> (Some (main_ctx app).proc, 0) | Child n -> (None, n - 1)
  in
  if at < 1 || tk_children < 0 then invalid_arg "Engine.takeover: at and n count from 1";
  app.armed <- app.armed @ [ { tk_payload = payload; tk_proc; tk_children; tk_entries = at - 1 } ]

(* Declare a tagged global section (BOUNDARY_VAR, §4.1): page-aligned pages
   appended to the data segment, excluded from the pristine snapshot. *)
let boundary_var app ~id ~name ~size =
  if app.booted then invalid_arg "Engine.boundary_var: application already booted";
  if List.exists (fun b -> b.b_id = id) app.boundaries then
    invalid_arg (Printf.sprintf "Engine.boundary_var: id %d already declared" id);
  let pages = Layout.pages_for ~bytes_len:size in
  let base = Layout.data_base + (app.data_pages * page_size) in
  app.data_pages <- app.data_pages + pages;
  let main = main_ctx app in
  Vm.map_fresh main.proc.Process.vm ~addr:base ~pages ~prot:Prot.page_rw ~tag:None;
  app.boundaries <- { b_id = id; b_name = name; b_base = base; b_pages = pages; b_tag = None } :: app.boundaries;
  base

let find_boundary app id =
  match List.find_opt (fun b -> b.b_id = id) app.boundaries with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Engine.boundary: id %d not declared" id)

(* Snapshot of the program image just before main() runs (§4.1): record the
   frames and mark the owner's pages copy-on-write so later writes never
   alter the snapshot, in one walk over the image pages ([Vm.snapshot]).
   Boundary sections lie past them, at the end of the data segment, so
   the snapshot excludes them and sthreads do not receive them by
   default.  The snapshot's shared page table and its frame references
   are built here, once; every sthread maps through it. *)
let boot app =
  if app.booted then invalid_arg "Engine.boot: already booted";
  let main = main_ctx app in
  let pristine =
    Vm.snapshot main.proc.Process.vm ~addr:Layout.data_base ~pages:app.image_pages
  in
  Vm.release_image app.pristine;
  app.pristine <- pristine;
  app.booted <- true

(* ------------------------------------------------------------------ *)
(* Effective privileges, derived from ground truth                     *)

(* The memory privilege a process actually holds on a tag is read off its
   page table, which handles main (mapped at tag_new) and sthreads (mapped
   from their policy) uniformly. *)
let priv_for_tag (p : Process.t) (tag : Tag.t) : Prot.grant option =
  match Pagetable.find (Vm.page_table p.Process.vm) ~vpn:(tag.Tag.base / page_size) with
  | None -> None
  | Some pte ->
      let pr = pte.Pagetable.prot in
      if pr.Prot.pw then Some Prot.RW
      else if pr.Prot.pcow then Some Prot.COW
      else if pr.Prot.pr then Some Prot.R
      else None

let holds_gate ctx gid =
  List.mem gid ctx.sc.Sc.gates
  ||
  match Hashtbl.find_opt ctx.app.gates gid with
  | Some g -> g.g_minter = pid ctx
  | None -> false

(* A parent may only delegate subsets of its own privileges (§3.1). *)
let validate_sc parent (sc : Sc.t) =
  List.iter
    (fun { Sc.tag; grant } ->
      if not tag.Tag.live then violation "grant on deleted tag %s" tag.Tag.name;
      match priv_for_tag parent.proc tag with
      | None -> violation "pid %d grants tag %s it does not hold" (pid parent) tag.Tag.name
      | Some pg ->
          if not (Prot.grant_subsumes ~parent:pg ~child:grant) then
            violation "pid %d escalates tag %s from %s to %s" (pid parent) tag.Tag.name
              (Prot.grant_to_string pg) (Prot.grant_to_string grant))
    sc.Sc.mems;
  List.iter
    (fun { Sc.fd; perm } ->
      match Fd_table.find parent.proc.Process.fds fd with
      | None -> violation "pid %d grants fd %d it does not hold" (pid parent) fd
      | Some e ->
          if not (Fd_table.perm_subsumes ~parent:e.Fd_table.perm ~child:perm) then
            violation "pid %d escalates fd %d permissions" (pid parent) fd)
    sc.Sc.fds;
  List.iter
    (fun gid ->
      if not (holds_gate parent gid) then
        violation "pid %d grants callgate %d it does not hold" (pid parent) gid)
    sc.Sc.gates;
  (match sc.Sc.uid with
  | Some u when u <> parent.proc.Process.uid && parent.proc.Process.uid <> 0 ->
      violation "pid %d (uid %d) cannot set uid %d" (pid parent) parent.proc.Process.uid u
  | _ -> ());
  (match sc.Sc.root with
  | Some r when r <> parent.proc.Process.root && parent.proc.Process.uid <> 0 ->
      violation "pid %d cannot chroot without uid 0" (pid parent)
  | _ -> ());
  match sc.Sc.sid with
  | Some sid
    when not
           (Selinux.may_transition parent.app.kernel.Kernel.selinux
              ~from_:parent.proc.Process.sid ~to_:sid) ->
      violation "SELinux forbids transition %s -> %s" parent.proc.Process.sid sid
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Building compartments                                              *)

let resolve_identity parent (sc : Sc.t) =
  ( Option.value sc.Sc.uid ~default:parent.proc.Process.uid,
    Option.value sc.Sc.root ~default:parent.proc.Process.root,
    Option.value sc.Sc.sid ~default:parent.proc.Process.sid )

let roll_site app site =
  match Fault_plan.roll_opt app.kernel.Kernel.faults ~site with
  | Some (Fault_plan.Delay ns) -> Clock.charge app.kernel.Kernel.clock ns
  | Some k -> Fault_plan.fail ~site k
  | None -> ()

(* A stamp's image must be one of this app's live images; a discarded
   image has left the registry. *)
let check_image app im ~what =
  if not (List.memq im app.frozen_images) then
    invalid_arg (what ^ ": image " ^ im.im_name ^ " not frozen in this app")

(* Install a new compartment's snapshot through its one shared page
   table: the pristine snapshot at the fork-like price of a [pte_copy]
   per page (§4.1, Figure 7), or a frozen image for one flat
   [pool_stamp] charge, however many pages it holds. *)
let install app (vm : Vm.t) spawn =
  let clock = app.kernel.Kernel.clock and cm = app.kernel.Kernel.costs in
  match spawn with
  | Stamp im ->
      if not im.im_live then invalid_arg ("Engine: image " ^ im.im_name ^ " discarded");
      Vm.map_image vm im.im_pages;
      Clock.charge clock cm.Cost_model.pool_stamp
  | Boot | Recycle ->
      Vm.map_image vm app.pristine;
      Clock.charge clock (Vm.image_size app.pristine * cm.Cost_model.pte_copy)

let maps (p : Process.t) (tag : Tag.t) =
  Pagetable.mem (Vm.page_table p.Process.vm) ~vpn:(tag.Tag.base / page_size)

(* The one grant mapper.  Each tag page maps at a [pte_copy] and each
   descriptor is duplicated from [src] at an [fd_dup]; what the
   compartment already maps or holds — its image's pages and
   descriptors, a gate's own grants — is skipped at no charge. *)
let map_tags app (child : Process.t) mems =
  let clock = app.kernel.Kernel.clock and cm = app.kernel.Kernel.costs in
  List.iter
    (fun { Sc.tag; grant } ->
      if not (maps child tag) then begin
        let prot = Prot.page_of_grant grant in
        Array.iteri
          (fun i frame ->
            Clock.charge clock cm.Cost_model.pte_copy;
            Vm.map_frame child.Process.vm ~addr:(tag.Tag.base + (i * page_size)) ~frame ~prot
              ~tag:(Some tag.Tag.id))
          tag.Tag.frames
      end)
    mems

let map_grants app (child : Process.t) ~src (sc : Sc.t) =
  map_tags app child sc.Sc.mems;
  List.iter
    (fun { Sc.fd; perm } ->
      if Fd_table.find child.Process.fds fd = None then begin
        Clock.charge app.kernel.Kernel.clock app.kernel.Kernel.costs.Cost_model.fd_dup;
        Fd_table.dup_into ~src ~dst:child.Process.fds ~fd ~perm
      end)
    sc.Sc.fds

(* A process whose creation faulted part-way: marked faulted and reaped,
   which returns every frame reference and descriptor it took. *)
let unwind app (child : Process.t) e =
  child.Process.status <-
    Process.Faulted (Option.value (fault_reason e) ~default:"creation failed");
  Kernel.reap app.kernel child

(* The one compartment builder, behind every sthread, callgate
   invocation and frozen template.  A new process with the given
   identity gets its snapshot from [spawn] — a stamped sthread then
   rolls fault site ["pool.stamp"] — then what was resolved for it
   before this call: [fds], an image's or a gate's descriptors, at an
   [fd_dup] each, and [tags], a gate's own tag grants.  Last come the
   grants of [sc], its descriptors duplicated from [src].  A fault
   part-way unwinds the half-built process before it reaches the
   caller. *)
let build app ~kind ~uid ~root ~sid ~spawn ~fds ~tags ~src sc =
  let child = Kernel.new_process app.kernel ~kind ~uid ~root ~sid () in
  match
    install app child.Process.vm spawn;
    (match (spawn, kind) with
    | Stamp _, Process.Sthread -> roll_site app "pool.stamp"
    | _ -> ());
    List.iter
      (fun (fd, target, perm) ->
        Clock.charge app.kernel.Kernel.clock app.kernel.Kernel.costs.Cost_model.fd_dup;
        Fd_table.install child.Process.fds ~fd target perm)
      fds;
    map_tags app child tags;
    map_grants app child ~src sc
  with
  | () -> child
  | exception e ->
      unwind app child e;
      raise e

(* A new compartment's ctx.  A stamped one already carries its
   template's demand-mapped heap and stack (smalloc bookkeeping
   included), so its first allocation must not map them again. *)
let compartment_ctx app child spawn sc instr =
  let ctx = make_ctx app child sc instr in
  (match spawn with
  | Stamp im ->
      ctx.heap_ready <- im.im_heap;
      ctx.stack_ready <- im.im_stack
  | Boot | Recycle -> ());
  ctx

(* What compartment code raises but must not contain: a scheduler
   deadlock (the run is stuck, not the compartment), and an exception a
   harness hook raised — the oracle's syscall hook, the memory
   recorder's consumer — which must end the run that found it. *)
let escapes app e =
  match e with Fiber.Deadlock _ -> true | e -> Kernel.hook_raised app.kernel e

(* Why a compartment died of [e].  A class outside [fault_reason] is
   counted as [fault.unexpected]: an honest server raises none, so a
   nonzero count is a server bug or a compromised compartment. *)
let death_reason ctx e =
  match fault_reason e with
  | Some reason -> reason
  | None -> (
      stat ctx "fault.unexpected";
      match e with Privilege_violation msg -> "policy: " ^ msg | e -> Printexc.to_string e)

let run_compartment ctx fn arg =
  let cm = costs ctx in
  charge ctx (cm.Cost_model.context_switch + cm.Cost_model.tlb_flush);
  let tr = ktrace ctx in
  (* Span named by the compartment kind ("sthread", "cgate", ...), pid =
     the compartment's own process — what attributes trace time to the
     right box in the Chrome view. *)
  let span = Process.kind_to_string ctx.proc.Process.kind in
  if Trace.enabled tr then
    Trace.span_begin tr ~name:span ~pid:ctx.proc.Process.pid;
  let result =
    match fn ctx arg with
    | v ->
        ctx.proc.Process.status <- Process.Exited 0;
        Some v
    | exception Exit_sthread code ->
        ctx.proc.Process.status <- Process.Exited code;
        Some code
    | exception e when escapes ctx.app e -> raise e
    | exception e ->
        (* Whatever the compartment's code raised — a protection fault,
           a profile denial, a hostile payload's bad descriptor or
           callgate — it dies alone, never up through the monitor. *)
        ctx.proc.Process.status <- Process.Faulted (death_reason ctx e);
        stat ctx "fault.compartment";
        trace_instant ctx "compartment.fault";
        None
  in
  if Trace.enabled tr then
    Trace.span_end tr ~name:span ~pid:ctx.proc.Process.pid;
  charge ctx cm.Cost_model.context_switch;
  result

let run_sthread app cctx fn arg =
  started app cctx.proc;
  let handle = { h_proc = cctx.proc; h_result = None } in
  handle.h_result <- run_compartment cctx fn arg;
  Kernel.reap app.kernel cctx.proc;
  handle

(* [Boot], and [Recycle] (only gates recycle), boot the pristine
   snapshot.  [Stamp im] restores [im] — its identity standing unless
   [sc] sets it, [sc]'s grants on top of its pages and descriptors —
   under the pool's own stat, span, fault site and counters. *)
let sthread_create ?instr ?(spawn = Boot) parent (sc : Sc.t) fn arg =
  let app = parent.app in
  if not app.booted then invalid_arg "sthread_create: application not booted";
  (match spawn with
  | Stamp im -> check_image app im ~what:"sthread_create"
  | Boot | Recycle -> ());
  enter parent "sthread_create";
  let instr = Option.value instr ~default:parent.instr in
  let src = parent.proc.Process.fds in
  match spawn with
  | Boot | Recycle ->
      stat parent "sthread_create";
      validate_sc parent sc;
      let uid, root, sid = resolve_identity parent sc in
      let child =
        build app ~kind:Process.Sthread ~uid ~root ~sid ~spawn ~fds:[] ~tags:[] ~src sc
      in
      let cctx = make_ctx app child sc instr in
      trace_instant cctx "sthread.create";
      run_sthread app cctx fn arg
  | Stamp im -> (
      app.pool_stamps <- app.pool_stamps + 1;
      stat parent "pool.stamp";
      validate_sc parent sc;
      let tr = ktrace parent in
      if Trace.enabled tr then Trace.span_begin tr ~name:"pool.stamp" ~pid:(pid parent);
      let finish () =
        if Trace.enabled tr then Trace.span_end tr ~name:"pool.stamp" ~pid:(pid parent)
      in
      match
        build app ~kind:Process.Sthread
          ~uid:(Option.value sc.Sc.uid ~default:im.im_uid)
          ~root:(Option.value sc.Sc.root ~default:im.im_root)
          ~sid:(Option.value sc.Sc.sid ~default:im.im_sid)
          ~spawn ~fds:im.im_fds ~tags:[] ~src sc
      with
      | exception e ->
          if fault_reason e <> None then begin
            stat parent "pool.stamp.fault";
            trace_instant parent "pool.stamp.fault"
          end;
          finish ();
          raise e
      | child ->
          app.pool_hits <- app.pool_hits + 1;
          let cctx = compartment_ctx app child spawn sc instr in
          trace_instant cctx "pool.stamped";
          let handle = run_sthread app cctx fn arg in
          finish ();
          handle)

let sthread_join parent handle =
  enter parent "sthread_join";
  trace_instant parent "sthread.join";
  match (handle.h_result, handle.h_proc.Process.status) with
  | Some v, _ -> v
  | None, Process.Faulted _ -> -1
  | None, _ -> invalid_arg "sthread_join: sthread still running"

let handle_status handle = handle.h_proc.Process.status

let exit_sthread code = raise (Exit_sthread code)

(* ------------------------------------------------------------------ *)
(* fork(2) and pthreads, as comparison baselines                       *)

(* Full fork: the child inherits a copy of the entire address space —
   including any sensitive data the parent holds — and all descriptors.
   Used by the privilege-separation baseline (§5.2) and Figure 7. *)
let fork parent fn =
  enter parent "fork";
  stat parent "fork";
  let p = parent.proc in
  let child =
    Kernel.new_process parent.app.kernel ~kind:Process.Forked ~uid:p.Process.uid
      ~root:p.Process.root ~sid:p.Process.sid ()
  in
  let cm = costs parent in
  let entries = Pagetable.fold (fun vpn pte acc -> (vpn, pte) :: acc) (Vm.page_table p.Process.vm) [] in
  List.iter
    (fun (vpn, (pte : Pagetable.pte)) ->
      charge parent cm.Cost_model.pte_copy;
      let prot = pte.Pagetable.prot in
      let shared_prot =
        if prot.Prot.pw then Prot.page_cow
        else prot
      in
      (* Both sides go copy-on-write, as with a real fork; the parent's
         downgrade goes through Vm so its TLB entries are shot down. *)
      if prot.Prot.pw then
        Vm.set_page_prot p.Process.vm ~addr:(vpn * page_size) ~prot:Prot.page_cow;
      Vm.map_frame child.Process.vm ~addr:(vpn * page_size) ~frame:pte.Pagetable.frame
        ~prot:shared_prot ~tag:pte.Pagetable.tag)
    entries;
  List.iter
    (fun fd ->
      match Fd_table.find p.Process.fds fd with
      | Some e ->
          charge parent cm.Cost_model.fd_dup;
          Fd_table.dup_into ~src:p.Process.fds ~dst:child.Process.fds ~fd ~perm:e.Fd_table.perm
      | None -> ())
    (Fd_table.fds p.Process.fds);
  let cctx = make_ctx parent.app child parent.sc parent.instr in
  cctx.heap_ready <- parent.heap_ready;
  cctx.stack_ready <- parent.stack_ready;
  started parent.app child;
  let handle = { h_proc = child; h_result = None } in
  handle.h_result <- run_compartment cctx (fun c _ -> fn c) 0;
  Kernel.reap parent.app.kernel child;
  handle

(* A pthread shares everything with its creator: no new address space, no
   new descriptors — just thread bookkeeping and two context switches. *)
let pthread parent fn =
  enter parent "clone";
  stat parent "pthread_create";
  let cm = costs parent in
  charge parent (cm.Cost_model.thread_struct + cm.Cost_model.context_switch);
  let v = fn parent in
  charge parent (cm.Cost_model.syscall_trap + cm.Cost_model.context_switch);
  v

(* ------------------------------------------------------------------ *)
(* Tagged memory                                                       *)

let default_tag_pages = 16

(* The allocation hook's [Tagged] argument is built only when a hook is
   armed: uninstrumented, a tag allocation allocates nothing for it. *)
let on_alloc_tagged ctx base len (tag : Tag.t) =
  if not (Instr.is_null ctx.instr) then
    ctx.instr.Instr.on_alloc base len (Instr.Tagged (tag.Tag.id, tag.Tag.name))

let tag_new ?(name = "tag") ?(pages = default_tag_pages) ctx =
  let app = ctx.app in
  let cm = costs ctx in
  match Tag_cache.take app.tag_cache ~pages with
  | Some entry ->
      (* Userland reuse: no system call; scrub by prefilling the cached
         bookkeeping image (§4.1). *)
      stat ctx "tag_new.reuse";
      charge ctx cm.Cost_model.smalloc_book_init;
      let tag = Tag.register app.tags ~name ~base:entry.Tag_cache.base ~pages in
      tag.Tag.frames <- Array.of_list entry.Tag_cache.frames;
      Array.iteri
        (fun i frame ->
          Vm.map_frame ctx.proc.Process.vm ~addr:(tag.Tag.base + (i * page_size)) ~frame
            ~prot:Prot.page_rw ~tag:(Some tag.Tag.id))
        tag.Tag.frames;
      (* The cache's reference transfers to the registry as it is. *)
      List.iter
        (fun (addr, w) -> Vm.write_u64 ctx.proc.Process.vm addr w)
        (Smalloc.prefill_image ~base:tag.Tag.base ~size:(pages * page_size));
      on_alloc_tagged ctx tag.Tag.base (pages * page_size) tag;
      tag
  | None ->
      enter ctx "tag_new";
      stat ctx "tag_new.fresh";
      charge ctx (cm.Cost_model.mmap_op + cm.Cost_model.smalloc_book_init);
      let base = Layout.alloc_tag_range app.layout ~pages in
      let tag = Tag.register app.tags ~name ~base ~pages in
      (* A frame allocation failing part-way (ENOMEM, injected or real)
         must leave no half-built tag behind: unmap the pages mapped so
         far and drop the registration before the fault propagates. *)
      (try
         Vm.map_fresh ctx.proc.Process.vm ~addr:base ~pages ~prot:Prot.page_rw
           ~tag:(Some tag.Tag.id)
       with e ->
         Vm.unmap_range ctx.proc.Process.vm ~addr:base ~pages;
         Tag.delete app.tags tag;
         raise e);
      let frames =
        Array.init pages (fun i ->
            match Pagetable.find (Vm.page_table ctx.proc.Process.vm) ~vpn:((base / page_size) + i) with
            | Some pte -> pte.Pagetable.frame
            | None -> assert false)
      in
      tag.Tag.frames <- frames;
      Array.iter (fun f -> Physmem.incref app.kernel.Kernel.pm f) frames;
      Smalloc.init ctx.proc.Process.vm ~base ~size:(pages * page_size);
      on_alloc_tagged ctx base (pages * page_size) tag;
      tag

let tag_delete ctx (tag : Tag.t) =
  if not tag.Tag.live then invalid_arg "tag_delete: tag already deleted";
  (match priv_for_tag ctx.proc tag with
  | Some Prot.RW -> ()
  | _ -> violation "pid %d deletes tag %s without read-write access" (pid ctx) tag.Tag.name);
  stat ctx "tag_delete";
  ctx.instr.Instr.on_free tag.Tag.base;
  (* Cache the range and frames for reuse before releasing our references. *)
  Tag_cache.put ctx.app.tag_cache
    { Tag_cache.base = tag.Tag.base; pages = tag.Tag.pages; frames = Array.to_list tag.Tag.frames };
  (* Deleting a tag is a *global* revocation: the range must vanish from
     every address space that maps it — sthreads holding a grant, not
     just the deleter — and each of those spaces' cached translations
     must be shot down, or a compartment could keep reading a tag that
     no longer exists (and whose frames the cache will scrub and hand to
     someone else).  Each remote unmap releases the reference that
     address space took when the grant was shared in. *)
  let caller_pid = pid ctx in
  List.iter
    (fun p ->
      Vm.unmap_range p.Process.vm ~addr:tag.Tag.base ~pages:tag.Tag.pages;
      if p.Process.pid <> caller_pid then stat ctx "tlb.remote_shootdown")
    (Kernel.processes_where ctx.app.kernel (fun p -> maps p tag));
  Array.iter (fun f -> Physmem.decref ctx.app.kernel.Kernel.pm f) tag.Tag.frames;
  Tag.delete ctx.app.tags tag;
  (* The local revocation is complete and every local invariant holds;
     now let the shard fabric (if armed) extend it to the other kernels
     before the delete returns to the caller. *)
  match ctx.app.on_tag_delete with Some f -> f tag | None -> ()

let set_on_tag_delete app f = app.on_tag_delete <- f

let smalloc ctx size (tag : Tag.t) =
  charge ctx (costs ctx).Cost_model.malloc_op;
  stat ctx "smalloc";
  let ptr = Smalloc.alloc ctx.proc.Process.vm ~base:tag.Tag.base size in
  on_alloc_tagged ctx ptr size tag;
  ptr

(* The private, untagged per-sthread heap (mapped lazily so that unused
   compartments stay cheap, as real kernels do with demand paging). *)
let ensure_heap ctx =
  if not ctx.heap_ready then begin
    Vm.map_fresh ctx.proc.Process.vm ~addr:Layout.heap_base ~pages:Layout.heap_pages
      ~prot:Prot.page_rw ~tag:None;
    Smalloc.init ctx.proc.Process.vm ~base:Layout.heap_base
      ~size:(Layout.heap_pages * page_size);
    ctx.heap_ready <- true
  end

let malloc ctx size =
  match ctx.smalloc_tag with
  | Some tag -> smalloc ctx size tag
  | None ->
      charge ctx (costs ctx).Cost_model.malloc_op;
      stat ctx "malloc";
      ensure_heap ctx;
      let ptr = Smalloc.alloc ctx.proc.Process.vm ~base:Layout.heap_base size in
      ctx.instr.Instr.on_alloc ptr size Instr.Heap;
      ptr

(* The allocator rejects wild/corrupted pointers with [Invalid_argument];
   inside a compartment that must become a contained abort — a hostile
   peer with write access to the same tag can manufacture the corruption,
   and the victim detecting it must not take the whole application down. *)
let checked_free ctx ~base ptr =
  try Smalloc.free ctx.proc.Process.vm ~base ptr
  with Invalid_argument msg ->
    stat ctx "fault.heap_corruption";
    raise (Heap_corruption msg)

let sfree ctx ptr =
  charge ctx (costs ctx).Cost_model.malloc_op;
  ctx.instr.Instr.on_free ptr;
  match Tag.find_by_addr ctx.app.tags ptr with
  | Some tag -> checked_free ctx ~base:tag.Tag.base ptr
  | None ->
      if ptr >= Layout.heap_base && ptr < Layout.heap_base + (Layout.heap_pages * page_size)
      then checked_free ctx ~base:Layout.heap_base ptr
      else invalid_arg (Printf.sprintf "sfree: 0x%x is not in a tag or the heap" ptr)

let free = sfree

let smalloc_on ctx tag =
  (* Deliberately mirrors the paper's single-flag limitation (§4.1): not
     reentrant; callers save and restore around nested use. *)
  ctx.smalloc_tag <- Some tag

let smalloc_off ctx = ctx.smalloc_tag <- None
let smalloc_state ctx = ctx.smalloc_tag

let boundary_tag ctx ~id =
  let b = find_boundary ctx.app id in
  match b.b_tag with
  | Some t -> t
  | None ->
      let tag = Tag.register ctx.app.tags ~name:("boundary:" ^ b.b_name) ~base:b.b_base ~pages:b.b_pages in
      let vm = (main_ctx ctx.app).proc.Process.vm in
      let frames =
        Array.init b.b_pages (fun i ->
            let addr = b.b_base + (i * page_size) in
            match Pagetable.find (Vm.page_table vm) ~vpn:(addr / page_size) with
            | Some pte ->
                (* Retag through Vm: a cached translation carrying the old
                   (untagged) identity must not survive the boundary's
                   promotion to tagged memory. *)
                Vm.set_page_tag vm ~addr ~tag:(Some tag.Tag.id);
                pte.Pagetable.frame
            | None -> assert false)
      in
      tag.Tag.frames <- frames;
      Array.iter (fun f -> Physmem.incref ctx.app.kernel.Kernel.pm f) frames;
      b.b_tag <- Some tag;
      tag

(* ------------------------------------------------------------------ *)
(* Callgates                                                           *)

let sc_cgate_add ?(spawn = Boot) creator (sc : Sc.t) ~name ~entry ~cgsc ~trusted =
  enter creator "cgate_add";
  stat creator "cgate_add";
  (* A callgate's permissions must be a subset of its creator's (§3.3). *)
  validate_sc creator cgsc;
  (* A stamped gate takes only address space from its image — identity,
     tags and descriptors stay the gate's own — so the image must
     be this app's, and carry no tagged memory a grant would have to
     justify. *)
  (match spawn with
  | Stamp im ->
      check_image creator.app im ~what:"sc_cgate_add";
      if Vm.image_tagged im.im_pages then
        violation "cgate_add: image %s carries tagged pages" im.im_name
  | Boot | Recycle -> ());
  let gid = creator.app.next_gate in
  creator.app.next_gate <- gid + 1;
  let resolved_fds =
    List.map
      (fun { Sc.fd; perm } ->
        match Fd_table.find creator.proc.Process.fds fd with
        | Some e -> (fd, e.Fd_table.target, perm)
        | None -> violation "cgate_add: creator does not hold fd %d" fd)
      cgsc.Sc.fds
  in
  let g =
    {
      g_id = gid;
      g_name = name;
      g_entry = entry;
      g_sc = cgsc;
      g_trusted = trusted;
      g_minter = pid creator;
      g_uid = Option.value cgsc.Sc.uid ~default:creator.proc.Process.uid;
      g_root = Option.value cgsc.Sc.root ~default:creator.proc.Process.root;
      g_sid = Option.value cgsc.Sc.sid ~default:creator.proc.Process.sid;
      g_spawn = spawn;
      g_fds = resolved_fds;
    }
  in
  Hashtbl.add creator.app.gates gid g;
  Sc.gate_grant sc gid;
  gid

let gate_of ctx gid =
  match Hashtbl.find_opt ctx.app.gates gid with
  | Some g -> g
  | None -> violation "cgate: no such callgate %d" gid

(* The compartment behind one callgate invocation, or a recycled gate's
   member: the creator's identity and the grants fixed at creation —
   descriptors resolved against the creator then (kernel-held: the
   caller needs no access to them) — plus the caller's extra [perms] for
   this invocation.  Only its snapshot depends on [g_spawn]. *)
let gate_compartment caller (g : gate) ~kind perms =
  let app = caller.app in
  (match g.g_spawn with Stamp _ -> stat caller "cgate.stamped" | Boot | Recycle -> ());
  let child =
    build app ~kind ~uid:g.g_uid ~root:g.g_root ~sid:g.g_sid ~spawn:g.g_spawn
      ~fds:g.g_fds ~tags:g.g_sc.Sc.mems ~src:caller.proc.Process.fds perms
  in
  compartment_ctx app child g.g_spawn g.g_sc caller.instr

(* Point a recycled member at gate [g]'s grants: its previous gate's tags
   and descriptors go, [g]'s come in — the tags at a [pte_copy] per
   page, the descriptors (resolved at [g]'s creation) reinstalled
   without an [fd_dup]. *)
let remap app (g : gate) m =
  let p = m.m_ctx.proc in
  List.iter
    (fun { Sc.tag; _ } ->
      if maps p tag then Vm.unmap_range p.Process.vm ~addr:tag.Tag.base ~pages:tag.Tag.pages)
    m.m_sc.Sc.mems;
  List.iter (fun { Sc.fd; _ } -> Fd_table.close p.Process.fds fd) m.m_sc.Sc.fds;
  map_tags app p g.g_sc.Sc.mems;
  List.iter
    (fun (fd, target, perm) ->
      Fd_table.close p.Process.fds fd;
      Fd_table.install p.Process.fds ~fd target perm)
    g.g_fds;
  p.Process.uid <- g.g_uid;
  p.Process.root <- g.g_root;
  p.Process.sid <- g.g_sid;
  m.m_sc <- g.g_sc

let cgate ?deadline_ns caller gid ~perms ~arg =
  enter caller "cgate";
  stat caller "cgate";
  let g = gate_of caller gid in
  if not (List.mem gid caller.sc.Sc.gates || g.g_minter = pid caller) then
    violation "pid %d invokes callgate %s without permission" (pid caller) g.g_name;
  check_policy_gate caller g.g_name;
  let cm = costs caller in
  charge caller cm.Cost_model.cgate_validate;
  (* The extra permissions must be a subset of the caller's own (§4.1). *)
  validate_sc caller perms;
  (* Callgate span, attributed to the invoking pid; the gate body itself
     shows up nested (the non-recycled path runs through
     [run_compartment], which opens a "cgate" span on the gate's pid).
     The name is dynamic, so build it only when armed. *)
  let tr = ktrace caller in
  let span = if Trace.enabled tr then "cgate:" ^ g.g_name else "" in
  if Trace.enabled tr then Trace.span_begin tr ~name:span ~pid:(pid caller);
  let finish result =
    if Trace.enabled tr then Trace.span_end tr ~name:span ~pid:(pid caller);
    result
  in
  let started_ns = Clock.now (clock caller) in
  (* Fault site "cgate.call": [Delay ns] models a livelocked gate — the
     invocation burns [ns] of simulated time before the entry runs, so a
     caller-supplied [deadline_ns] fires (and a recycled member is
     discarded as hung); any other kind crashes the call contained, in
     the caller, before any gate process is built. *)
  (match Fault_plan.roll_opt caller.app.kernel.Kernel.faults ~site:"cgate.call" with
  | Some (Fault_plan.Delay ns) ->
      stat caller "cgate.stalled";
      charge caller ns
  | Some k ->
      stat caller "fault.cgate";
      if Trace.enabled tr then Trace.span_end tr ~name:span ~pid:(pid caller);
      Fault_plan.fail ~site:"cgate.call" k
  | None -> ());
  (* A gate that overruns its deadline is treated as hung: the caller gets
     -1 after the gate's work has been charged to the clock (the timeout
     fires only once that much simulated time has passed). *)
  let apply_deadline result =
    match deadline_ns with
    | Some d when Clock.now (clock caller) - started_ns > d ->
        stat caller "cgate.deadline_exceeded";
        -1
    | _ -> result
  in
  match g.g_spawn with
  | Recycle ->
      stat caller "cgate.recycled";
      let app = caller.app in
      (* The gate name's idle members, the most recently returned first.
         A call takes one for itself — two callers are never inside one
         member — and gives it back alive when it ends; with every member
         busy it builds another. *)
      let idle () = Option.value (Hashtbl.find_opt app.recycled_pool g.g_name) ~default:[] in
      let give m = Hashtbl.replace app.recycled_pool g.g_name (m :: idle ()) in
      let fresh () =
        { m_ctx = gate_compartment caller g ~kind:Process.Recycled (Sc.create ()); m_sc = g.g_sc }
      in
      (* A reused member is remapped to the current gate instance (new
         connection descriptors, fresh per-connection tags) without
         paying sthread creation.  Its private heap and stack survive,
         which is exactly the isolation-for-performance trade §3.3
         warns about. *)
      let m =
        match idle () with
        | m :: rest ->
            Hashtbl.replace app.recycled_pool g.g_name rest;
            if m.m_sc != g.g_sc then remap app g m;
            m
        | [] -> fresh ()
      in
      let gctx = m.m_ctx in
      (* Wake the long-lived sthread through a futex, run, wait for the
         completion futex (§4.1). *)
      charge caller (2 * cm.Cost_model.futex_op);
      charge caller (2 * cm.Cost_model.context_switch);
      gctx.caller_pid <- Some (pid caller);
      (* The caller's extras are this invocation's alone. *)
      let extra =
        List.fold_left
          (fun acc { Sc.tag; _ } -> if maps gctx.proc tag then acc else tag :: acc)
          [] perms.Sc.mems
      in
      (match map_grants app gctx.proc ~src:caller.proc.Process.fds perms with
      | () -> ()
      | exception e ->
          give m;
          raise e);
      (* One bad invocation must not poison the pool: the faulted (or
         hung) member is reaped and a fresh one joins the idle members
         eagerly, so the next caller finds a healthy sthread instead of
         paying a cold start. *)
      let discard_and_respawn reason =
        gctx.proc.Process.status <- Process.Faulted reason;
        if Kernel.find_process app.kernel gctx.proc.Process.pid <> None then
          Kernel.reap app.kernel gctx.proc;
        give (fresh ());
        stat caller "cgate.recycled.respawn"
      in
      let result =
        match g.g_entry gctx ~trusted:g.g_trusted ~arg with
        | v -> v
        | exception Exit_sthread code -> code
        | exception e when escapes app e ->
            give m;
            raise e
        | exception e ->
            (* Same containment as [run_compartment]: the member is
               discarded, never propagated. *)
            stat caller "fault.cgate";
            discard_and_respawn (death_reason gctx e);
            -1
      in
      if Process.is_alive gctx.proc then
        List.iter
          (fun (tag : Tag.t) ->
            Vm.unmap_range gctx.proc.Process.vm ~addr:tag.Tag.base ~pages:tag.Tag.pages)
          extra;
      let final = apply_deadline result in
      if final = -1 && result <> -1 then
        (* Deadline overrun with the member still alive: treat it as hung. *)
        discard_and_respawn "callgate deadline exceeded"
      else if Process.is_alive gctx.proc then give m;
      finish final
  | Boot | Stamp _ ->
      let gctx = gate_compartment caller g ~kind:Process.Cgate perms in
      gctx.caller_pid <- Some (pid caller);
      let result =
        match run_compartment gctx (fun c a -> g.g_entry c ~trusted:g.g_trusted ~arg:a) arg with
        | Some v -> v
        | None ->
            stat caller "fault.cgate";
            -1
      in
      Kernel.reap caller.app.kernel gctx.proc;
      finish (apply_deadline result)

(* Retire a callgate: later invocations fail as an unknown gate, and the
   app stops holding its entry point, grants and descriptors.  Only the
   minter may — the per-connection gates of a server die with their
   connection instead of accumulating in the master. *)
let cgate_delete ctx gid =
  let g = gate_of ctx gid in
  if g.g_minter <> pid ctx then
    violation "pid %d deletes callgate %s it did not mint" (pid ctx) g.g_name;
  Hashtbl.remove ctx.app.gates gid

(* ------------------------------------------------------------------ *)
(* Identity changes (used by authentication callgates, §5.2)           *)

let set_identity ctx ~target_pid ?uid ?root () =
  enter ctx "setuid";
  if getuid ctx <> 0 then violation "set_identity: pid %d is not root" (pid ctx);
  match Kernel.find_process ctx.app.kernel target_pid with
  | None -> violation "set_identity: no process %d" target_pid
  | Some p ->
      (match uid with Some u -> p.Process.uid <- u | None -> ());
      (match root with Some r -> p.Process.root <- r | None -> ())

(* ------------------------------------------------------------------ *)
(* Checked, instrumented data access                                   *)

let on_access ctx addr len kind =
  if not (Instr.is_null ctx.instr) then ctx.instr.Instr.on_access addr len kind;
  match ctx.policy with
  | None -> ()
  | Some p -> (
      match p.pol_mem ~addr ~len ~write:(kind = Instr.Write) with
      | None -> ()
      | Some msg -> policy_deny ctx msg)

let read_u8 ctx addr =
  on_access ctx addr 1 Instr.Read;
  Vm.read_u8 ctx.proc.Process.vm addr

let write_u8 ctx addr v =
  on_access ctx addr 1 Instr.Write;
  Vm.write_u8 ctx.proc.Process.vm addr v

let read_u16 ctx addr =
  on_access ctx addr 2 Instr.Read;
  Vm.read_u16 ctx.proc.Process.vm addr

let write_u16 ctx addr v =
  on_access ctx addr 2 Instr.Write;
  Vm.write_u16 ctx.proc.Process.vm addr v

let read_u32 ctx addr =
  on_access ctx addr 4 Instr.Read;
  Vm.read_u32 ctx.proc.Process.vm addr

let write_u32 ctx addr v =
  on_access ctx addr 4 Instr.Write;
  Vm.write_u32 ctx.proc.Process.vm addr v

let read_u64 ctx addr =
  on_access ctx addr 8 Instr.Read;
  Vm.read_u64 ctx.proc.Process.vm addr

let write_u64 ctx addr v =
  on_access ctx addr 8 Instr.Write;
  Vm.write_u64 ctx.proc.Process.vm addr v

let read_into ctx addr buf pos len =
  on_access ctx addr len Instr.Read;
  Vm.read_into ctx.proc.Process.vm addr buf pos len

let read_bytes ctx addr len =
  on_access ctx addr len Instr.Read;
  Vm.read_bytes ctx.proc.Process.vm addr len

let write_bytes ctx addr b =
  on_access ctx addr (Bytes.length b) Instr.Write;
  Vm.write_bytes ctx.proc.Process.vm addr b

(* One host copy per simulated copy.  [Vm.read_bytes] returns a fresh
   buffer that nothing else holds, so it becomes the string as is; and
   [Vm.write_bytes] only blits from its source, never keeping or
   mutating it, so the caller's string is passed without a copy.  An
   armed memory-event recorder takes its own [Bytes.copy] either way. *)
let read_string ctx addr len = Bytes.unsafe_to_string (read_bytes ctx addr len)
let write_string ctx addr s = write_bytes ctx addr (Bytes.unsafe_of_string s)

let can_read ctx ~addr ~len = Vm.can_read ctx.proc.Process.vm ~addr ~len
let can_write ctx ~addr ~len = Vm.can_write ctx.proc.Process.vm ~addr ~len

(* Live TLB counters for the calling compartment's address space.
   (Kernel.reap folds these into the global stats when the process dies;
   this accessor reads them while it is still running.) *)
type tlb_stats = {
  tlb_hits : int;
  tlb_misses : int;
  tlb_shootdowns : int;
}

let tlb_stats ctx =
  let vm = ctx.proc.Process.vm in
  {
    tlb_hits = Vm.tlb_hits vm;
    tlb_misses = Vm.tlb_misses vm;
    tlb_shootdowns = Vm.tlb_shootdowns vm;
  }

(* ------------------------------------------------------------------ *)
(* Function and stack-frame tracking (Crowbar's "frame pointers")      *)

let in_function ctx ~name ?(file = "?") ?(line = 0) f =
  Instr.scoped ctx.instr ~name ~file ~line f

let ensure_stack ctx =
  if not ctx.stack_ready then begin
    Vm.map_fresh ctx.proc.Process.vm ~addr:Layout.stack_base ~pages:Layout.stack_pages
      ~prot:Prot.page_rw ~tag:None;
    ctx.stack_ready <- true
  end

(* A stack frame with [locals] bytes of named local storage; the body gets
   the frame base address.  Registered with the instrumentation so cb-log
   can attribute accesses to the owning function's frame (§4.2). *)
let stack_frame ctx ~name ~locals f =
  ensure_stack ctx;
  let aligned = (locals + 7) land lnot 7 in
  let sp = ctx.stack_sp - aligned in
  if sp < Layout.stack_base then invalid_arg "stack_frame: simulated stack overflow";
  ctx.stack_sp <- sp;
  ctx.instr.Instr.on_alloc sp aligned (Instr.Stack name);
  let restore () =
    ctx.instr.Instr.on_free sp;
    ctx.stack_sp <- sp + aligned
  in
  match f sp with
  | v ->
      restore ();
      v
  | exception e ->
      restore ();
      raise e

(* ------------------------------------------------------------------ *)
(* File descriptors and files                                          *)

exception Fd_error of string

let fd_entry ctx fd =
  match Fd_table.find ctx.proc.Process.fds fd with
  | Some e -> e
  | None -> raise (Fd_error (Printf.sprintf "pid %d: bad fd %d" (pid ctx) fd))

let open_file ctx ?(write = false) path =
  enter ctx "open";
  let k = ctx.app.kernel in
  let p = ctx.proc in
  let check =
    if write then
      Vfs.append_file k.Kernel.vfs ~root:p.Process.root ~uid:p.Process.uid path ""
    else
      Result.map (fun (_ : string) -> ())
        (Vfs.read_file k.Kernel.vfs ~root:p.Process.root ~uid:p.Process.uid path)
  in
  match check with
  | Error e -> Error e
  | Ok () ->
      let eff = Filename.concat p.Process.root path in
      let target = Fd_table.File { Fd_table.fh_path = eff; fh_pos = 0 } in
      let perm = if write then Fd_table.perm_rw else Fd_table.perm_r in
      Ok (Fd_table.add p.Process.fds target perm)

let add_endpoint ctx ep perm = Fd_table.add ctx.proc.Process.fds (Fd_table.Endpoint ep) perm

(* Block before the trap, not after: a guarded connection's [ep_wait]
   parks here until a read would progress, so an idle connection makes
   no kernel entry and charges no trap cost while it waits.  A raw
   channel's returns at once and its read blocks after the trap; a
   descriptor the read will refuse never waits. *)
let fd_pre_wait ctx fd =
  match Fd_table.find ctx.proc.Process.fds fd with
  | Some { Fd_table.target = Fd_table.Endpoint ep; perm } when perm.Fd_table.fr ->
      ep.Fd_table.ep_wait ()
  | _ -> ()

let fd_read ctx fd n =
  fd_pre_wait ctx fd;
  enter ctx "read";
  check_policy_fd ctx fd ~write:false;
  let e = fd_entry ctx fd in
  if not e.Fd_table.perm.Fd_table.fr then
    raise (Fd_error (Printf.sprintf "pid %d: fd %d not readable" (pid ctx) fd));
  match e.Fd_table.target with
  | Fd_table.Null -> Bytes.create 0
  | Fd_table.Endpoint ep ->
      let b = ep.Fd_table.ep_read n in
      charge ctx ((costs ctx).Cost_model.net_per_byte * Bytes.length b);
      b
  | Fd_table.File fh -> (
      match Vfs.read_file ctx.app.kernel.Kernel.vfs ~root:"/" ~uid:0 fh.Fd_table.fh_path with
      | Error err -> raise (Fd_error (Vfs.error_to_string err))
      | Ok data ->
          let avail = max 0 (String.length data - fh.Fd_table.fh_pos) in
          let len = min n avail in
          let b = Bytes.of_string (String.sub data fh.Fd_table.fh_pos len) in
          fh.Fd_table.fh_pos <- fh.Fd_table.fh_pos + len;
          charge ctx ((costs ctx).Cost_model.disk_per_byte * len);
          b)

(* A range outside [b] is the caller's bug, refused before the kernel
   entry: no trap, no charge, no byte moved. *)
let fd_write_sub ctx fd b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg "Engine.fd_write_sub";
  enter ctx "write";
  check_policy_fd ctx fd ~write:true;
  let e = fd_entry ctx fd in
  if not e.Fd_table.perm.Fd_table.fw then
    raise (Fd_error (Printf.sprintf "pid %d: fd %d not writable" (pid ctx) fd));
  match e.Fd_table.target with
  | Fd_table.Null -> ()
  | Fd_table.Endpoint ep ->
      charge ctx ((costs ctx).Cost_model.net_per_byte * len);
      ep.Fd_table.ep_write b off len
  | Fd_table.File fh -> (
      let vfs = ctx.app.kernel.Kernel.vfs in
      let data =
        match Vfs.read_file vfs ~root:"/" ~uid:0 fh.Fd_table.fh_path with
        | Ok d -> d
        | Error _ -> ""
      in
      let pos = fh.Fd_table.fh_pos in
      let chunk = Bytes.sub_string b off len in
      let data =
        if pos >= String.length data then data ^ chunk
        else
          String.sub data 0 pos
          ^ chunk
          ^
          let tail = pos + len in
          if tail < String.length data then String.sub data tail (String.length data - tail)
          else ""
      in
      charge ctx ((costs ctx).Cost_model.disk_per_byte * len);
      fh.Fd_table.fh_pos <- pos + len;
      match Vfs.write_file vfs ~root:"/" ~uid:0 fh.Fd_table.fh_path data with
      | Ok () -> ()
      | Error err -> raise (Fd_error (Vfs.error_to_string err)))

let fd_write ctx fd b = fd_write_sub ctx fd b 0 (Bytes.length b)

let fd_close ctx fd = Fd_table.close ctx.proc.Process.fds fd

(* Convenience path-level file access under the caller's identity. *)
let vfs_read ctx path =
  enter ctx "open";
  Vfs.read_file ctx.app.kernel.Kernel.vfs ~root:ctx.proc.Process.root ~uid:ctx.proc.Process.uid path

let vfs_write ctx path data =
  enter ctx "open";
  Vfs.write_file ctx.app.kernel.Kernel.vfs ~root:ctx.proc.Process.root ~uid:ctx.proc.Process.uid path data

let vfs_readdir ctx path =
  enter ctx "getdents";
  Vfs.readdir ctx.app.kernel.Kernel.vfs ~root:ctx.proc.Process.root ~uid:ctx.proc.Process.uid path

let set_instr ctx instr = ctx.instr <- instr
let instr_of ctx = ctx.instr
let set_policy ctx p = ctx.policy <- p
let caller_pid ctx = ctx.caller_pid

(* Length-value blocks: the idiom for passing variable-size arguments and
   results through tagged memory between compartments. *)
let write_lv ctx addr s =
  write_u32 ctx addr (String.length s);
  write_string ctx (addr + 4) s

let read_lv ctx addr =
  let n = read_u32 ctx addr in
  read_string ctx (addr + 4) n

(* Charge application-level work to the simulated clock (e.g. the fixed
   per-request cost of the HTTP application logic). *)
let charge_app ctx ns = charge ctx ns

(* The kernel's tag-to-segment map (what an attacker who knows the layout
   would target; also used by Crowbar attribution). *)
let live_tags app = Tag.live_tags app.tags
let set_tag_cache app enabled = Tag_cache.set_enabled app.tag_cache enabled
let tag_cache_hits app = Tag_cache.hits app.tag_cache
let tag_cache_misses app = Tag_cache.misses app.tag_cache
let find_tag_by_addr app addr = Tag.find_by_addr app.tags addr

(* The application's whole counter surface in one registry: everything
   the kernel sees (stats, TLB, fault plan) plus the tag-cache counters
   only the engine can reach. *)
let register_metrics m app =
  Kernel.register_metrics m app.kernel;
  Metrics.register m ~name:"tag_cache" ~kind:Metrics.Counter (fun () ->
      [
        ("tag_cache.hits", Tag_cache.hits app.tag_cache);
        ("tag_cache.misses", Tag_cache.misses app.tag_cache);
        ("tag_cache.scrubbed_pages", Tag_cache.scrubbed_pages app.tag_cache);
      ]);
  Metrics.register m ~name:"engine" (fun () ->
      [ ("tags.live", List.length (Tag.live_tags app.tags)) ]);
  Metrics.register m ~name:"pool" ~kind:Metrics.Counter (fun () ->
      [
        ("pool.freezes", app.pool_freezes);
        ("pool.stamps", app.pool_stamps);
        ("pool.hits", app.pool_hits);
      ]);
  Metrics.register m ~name:"pool.gauges" (fun () ->
      [
        ("pool.images", List.length app.frozen_images);
        ( "pool.frozen_frames",
          List.fold_left (fun a im -> a + Vm.image_size im.im_pages) 0 app.frozen_images );
      ])
