module Clock = Wedge_sim.Clock
module Cost_model = Wedge_sim.Cost_model
module Stats = Wedge_sim.Stats
module Trace = Wedge_sim.Trace
module Metrics = Wedge_sim.Metrics

exception Eperm of string

type t = {
  pm : Physmem.t;
  clock : Clock.t;
  costs : Cost_model.t;
  vfs : Vfs.t;
  selinux : Selinux.t;
  stats : Stats.t;
  trace : Trace.t;
  faults : Wedge_fault.Fault_plan.t option;
  shard : int;
      (* which kernel shard this is in a multi-kernel world (0 in the
         single-kernel one); labels traces and oracle reports *)
  mutable next_pid : int;
  procs : (int, Process.t) Hashtbl.t;
  mem_rec : Vm.recorder;
      (* one recorder cell shared by every address space this kernel
         creates, so an armed consumer sees the globally ordered
         cross-process memory-event stream *)
  mutable on_syscall : (string -> unit) option;
      (* invariant-oracle hook, called on entry to [syscall_check] *)
  mutable syscall_raised : exn option;
      (* the last exception [on_syscall] raised, latched as [mem_rec]
         latches its consumer's *)
}

let create ?(costs = Cost_model.default) ?faults ?(shard = 0) () =
  let clock = Clock.create () in
  {
    pm = Physmem.create ?faults ();
    clock;
    costs;
    vfs = Vfs.create ();
    selinux = Selinux.create ();
    stats = Stats.create ();
    trace = Trace.create ~clock ();
    faults;
    shard;
    next_pid = 1;
    procs = Hashtbl.create 32;
    mem_rec = { Vm.sink = None; raised = None };
    on_syscall = None;
    syscall_raised = None;
  }

let charge t ns = Clock.charge t.clock ns

(* The stats key of each system call, built on its first trap: a kernel
   entry allocates nothing.  Syscall names are a fixed vocabulary, so
   the table stays small. *)
let trap_keys : (string, string) Hashtbl.t = Hashtbl.create 64

let trap_key name =
  match Hashtbl.find trap_keys name with
  | key -> key
  | exception Not_found ->
      let key = "trap." ^ name in
      Hashtbl.add trap_keys name key;
      key

let trap t name =
  charge t t.costs.Cost_model.syscall_trap;
  Stats.bump t.stats (trap_key name)

let new_process t ~kind ~uid ~root ~sid () =
  let pid = t.next_pid in
  t.next_pid <- t.next_pid + 1;
  charge t t.costs.Cost_model.proc_struct;
  let p =
    {
      Process.pid;
      kind;
      uid;
      root;
      sid;
      vm =
        Vm.create ~trace:t.trace ~recorder:t.mem_rec ~pid t.pm t.clock t.costs;
      fds = Fd_table.create ();
      status = Process.Running;
    }
  in
  Hashtbl.add t.procs pid p;
  p

let find_process t pid = Hashtbl.find_opt t.procs pid

(* Walks of the process table go in ascending pid order: [Hashtbl]'s
   own order depends on insertion/resize history, which made shootdown
   traces — and therefore exploration digests — differ between otherwise
   identical runs.  Sorted-pid order is a pure function of the table's
   contents.  A global revocation (tag deletion's shootdown sweep) lists
   only the processes it selects, not every pid. *)
let processes_where t pred =
  Hashtbl.fold (fun _ p acc -> if pred p then p :: acc else acc) t.procs []
  |> List.sort (fun (a : Process.t) b -> compare a.Process.pid b.Process.pid)

(* The invariant oracles' full sweep.  The pid list is snapshotted first
   so [f] may remove entries (reap) without invalidating the walk. *)
let iter_processes t f =
  let pids = Hashtbl.fold (fun pid _ acc -> pid :: acc) t.procs [] in
  List.iter
    (fun pid -> match Hashtbl.find_opt t.procs pid with Some p -> f p | None -> ())
    (List.sort compare pids)

(* Fold the address space's TLB counters into the kernel stats before the
   Vm goes away, so short-lived sthreads still show up in the totals. *)
let fold_tlb_stats t (p : Process.t) =
  let vm = p.Process.vm in
  let bump key n = if n > 0 then Stats.add t.stats key n in
  bump "tlb.hit" (Vm.tlb_hits vm);
  bump "tlb.miss" (Vm.tlb_misses vm);
  bump "tlb.shootdown" (Vm.tlb_shootdowns vm)

let reap t (p : Process.t) =
  fold_tlb_stats t p;
  Vm.destroy p.Process.vm;
  Fd_table.close_all p.Process.fds;
  Hashtbl.remove t.procs p.Process.pid

let syscall_check t (p : Process.t) name =
  (* The oracle hook runs first: it checks the state the syscall found,
     before the trap is charged or anything else moves. *)
  (match t.on_syscall with
  | Some f -> (
      try f name
      with e ->
        t.syscall_raised <- Some e;
        raise e)
  | None -> ());
  trap t name;
  (* The [enabled] guard keeps the disabled path free of the string
     concatenation below. *)
  if Trace.enabled t.trace then
    Trace.instant t.trace ~name:("sys." ^ name) ~pid:p.Process.pid;
  if not (Selinux.check t.selinux ~sid:p.Process.sid ~syscall:name) then
    raise
      (Eperm
         (Printf.sprintf "pid %d (sid %s): syscall %s denied by SELinux policy"
            p.Process.pid p.Process.sid name))

(* Raised by a harness hook: the oracle's syscall hook or the memory
   recorder's consumer.  Such an exception unwinds through compartment
   code, and must end the run that found it, not the compartment. *)
let hook_raised t e =
  let is = function Some x -> x == e | None -> false in
  is t.syscall_raised || is t.mem_rec.Vm.raised

let live_processes t =
  Hashtbl.fold (fun _ p n -> if Process.is_alive p then n + 1 else n) t.procs 0

(* Registry sources covering everything the kernel can see: its own stats
   table (traps, compartment faults, supervisor counters, reaped TLB
   totals) plus the live per-process TLB counters not yet folded in by
   [reap].  [Metrics.snapshot] sums duplicate keys, so live + reaped
   under "tlb.hit"/"tlb.miss"/"tlb.shootdown" reads as the true total.
   The attached fault plan, when present, registers its own source. *)
let register_metrics m t =
  Metrics.register_stats m ~name:"kernel.stats" t.stats;
  Metrics.register m ~name:"kernel.tlb" ~kind:Metrics.Counter (fun () ->
      let hit = ref 0 and miss = ref 0 and shoot = ref 0 in
      iter_processes t (fun p ->
          let vm = p.Process.vm in
          hit := !hit + Vm.tlb_hits vm;
          miss := !miss + Vm.tlb_misses vm;
          shoot := !shoot + Vm.tlb_shootdowns vm);
      [ ("tlb.hit", !hit); ("tlb.miss", !miss); ("tlb.shootdown", !shoot) ]);
  Metrics.register m ~name:"kernel.procs" (fun () ->
      [ ("kernel.live_processes", live_processes t) ]);
  Metrics.register m ~name:"kernel.physmem" (fun () ->
      [
        ("physmem.frames", Physmem.frames_in_use t.pm);
        ("physmem.host_frames", Physmem.host_frames t.pm);
      ]);
  match t.faults with
  | Some plan -> Metrics.register_fault_plan m plan
  | None -> ()
