(** The simulated kernel: physical memory, clock, VFS, SELinux policy and
    the process table, plus the privilege checks every simulated system
    call passes through. *)

exception Eperm of string
(** A system call was denied (SELinux policy, uid check, or privilege
    escalation attempt). *)

type t = {
  pm : Physmem.t;
  clock : Wedge_sim.Clock.t;
  costs : Wedge_sim.Cost_model.t;
  vfs : Vfs.t;
  selinux : Selinux.t;
  stats : Wedge_sim.Stats.t;
  trace : Wedge_sim.Trace.t;
  faults : Wedge_fault.Fault_plan.t option;
  shard : int;
      (** which kernel shard this is in a multi-kernel world (0 in the
          single-kernel one); labels traces and oracle reports *)
  mutable next_pid : int;
  procs : (int, Process.t) Hashtbl.t;
  mem_rec : Vm.recorder;
      (** one {!Vm.recorder} cell shared by every address space this
          kernel creates — arm it ([sink <- Some f]) to stream the
          globally ordered memory events of all processes to a
          differential checker, disarm with [sink <- None] *)
  mutable on_syscall : (string -> unit) option;
      (** invariant-oracle hook, called with the syscall name on entry to
          {!syscall_check}, before any charge or policy check runs *)
  mutable syscall_raised : exn option;
      (** the last exception [on_syscall] raised, latched before it
          unwinds *)
}

val create :
  ?costs:Wedge_sim.Cost_model.t ->
  ?faults:Wedge_fault.Fault_plan.t ->
  ?shard:int ->
  unit ->
  t
(** [faults] threads a fault plan into physical-memory allocation
    (site ["physmem.alloc"] raises {!Physmem.Enomem}); [shard] (default
    0) labels
    this kernel in a sharded multi-kernel world
    (see {!Wedge_net.Shard}). *)

val new_process :
  t ->
  kind:Process.kind ->
  uid:int ->
  root:string ->
  sid:string ->
  unit ->
  Process.t
(** Allocate a PCB with an empty address space and fd table. *)

val find_process : t -> int -> Process.t option

val processes_where : t -> (Process.t -> bool) -> Process.t list
(** The processes in the table (any status) for which [pred] holds, in
    ascending pid order — a pure function of the table's contents, so
    shootdown traces and exploration digests never depend on hash-table
    history.  [pred] must not change the table.  Used by global
    revocations — e.g. tag deletion — that must unmap a range from, and
    shoot down cached translations in, {e every} address space that maps
    it, not just the caller's: they list only those spaces. *)

val iter_processes : t -> (Process.t -> unit) -> unit
(** Visit every process in the table (any status), in ascending pid
    order; [f] may reap processes mid-walk.  This full sweep is for the
    invariant oracles and the kernel's own metrics: a revocation selects
    the spaces it touches with {!processes_where} ([bin/check.sh] fails
    on a call elsewhere in [lib/]). *)

val reap : t -> Process.t -> unit
(** Tear down a terminated process's address space and descriptors.
    Folds the address space's TLB hit/miss/shootdown counters into
    {!field-stats} (keys ["tlb.hit"], ["tlb.miss"], ["tlb.shootdown"])
    before destroying it. *)

val syscall_check : t -> Process.t -> string -> unit
(** One kernel entry: charge one trap (stat ["trap.<name>"]), then
    enforce the caller's SELinux policy for the named system call.
    With {!field-trace} armed, records a ["sys.<name>"] instant
    attributed to the calling pid.
    @raise Eperm when denied. *)

val hook_raised : t -> exn -> bool
(** Whether [e] is the exception a harness hook — [on_syscall] or the
    [mem_rec] consumer — last raised (physical equality).  It unwinds
    through compartment code; the engine lets it escape instead of
    containing it, so an oracle violation or a model mismatch still
    ends the run. *)

val live_processes : t -> int

val register_metrics : Wedge_sim.Metrics.t -> t -> unit
(** Register this kernel's counters with a metrics registry: the stats
    table, live per-process TLB counters (summed with the reaped totals
    under the same keys), a live-process gauge, two physical-memory
    gauges — ["physmem.frames"] (live frames) and ["physmem.host_frames"]
    (those written at least once, see {!Physmem.host_frames}) — and, when a
    fault plan is attached, its injection and per-site op counts. *)
