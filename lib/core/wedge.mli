(** The Wedge programming interface (Table 1 of the paper).

    This facade re-exports the engine's operations under the paper's names.
    A typical partitioned application:

    {[
      let kernel = Wedge_kernel.Kernel.create () in
      let app = Wedge.create_app kernel in
      let main = Wedge.main_ctx app in
      Wedge.boot app;                          (* pristine snapshot, pre-main *)
      let secret = Wedge.tag_new ~name:"secret" main in
      let key = Wedge.smalloc main 32 secret in
      Wedge.write_string main key "hunter2...";
      (* a callgate that may read the secret *)
      let cgsc = Wedge.sc_create () in
      Wedge.sc_mem_add cgsc secret Wedge_kernel.Prot.R;
      let worker_sc = Wedge.sc_create () in
      let gate =
        Wedge.sc_cgate_add main worker_sc ~name:"use_secret"
          ~entry:(fun gctx ~trusted ~arg:_ ->
            String.length (Wedge.read_string gctx trusted 32))
          ~cgsc ~trusted:key
      in
      ignore gate;
      (* a default-deny worker: cannot read [key], can invoke the gate *)
      let h =
        Wedge.sthread_create main worker_sc
          (fun ctx _ -> Wedge.cgate ctx gate ~perms:(Wedge.sc_create ()) ~arg:0)
          0
      in
      ignore (Wedge.sthread_join main h)
    ]} *)

type app = Engine.app
type ctx = Engine.ctx
type handle = Engine.handle
type gate_id = Engine.gate_id

type spawn = Engine.spawn = Boot | Recycle | Stamp of Pool.t
(** How a compartment gets its address space — the one choice behind
    {!sthread_create}, {!sc_cgate_add} and the servers' [run_worker]:
    [Boot] maps the pristine snapshot page by page (fork-priced), [Stamp
    image] installs a frozen {!Pool} image for one flat charge, and
    [Recycle] backs a callgate by long-lived members (§3.3) — an sthread
    under [Recycle] boots. *)

exception Privilege_violation of string
(** A policy asked for more privilege than its grantor holds, or a
    compartment invoked a callgate it was not granted. *)

exception Heap_corruption of string
(** {!sfree}/{!free} detected a wild or corrupted chunk (the allocator's
    pointer validation failed).  Contained like SIGABRT: the compartment
    dies, the application survives — a hostile peer with write access to
    the same tag must not be able to crash the whole program by
    corrupting chunk headers. *)

(** {1 Application lifecycle} *)

val create_app : ?image_pages:int -> Wedge_kernel.Kernel.t -> app
(** Create the application's original process.  [image_pages] is the size
    of the program image (globals + shared libraries + loader state) that
    the pristine snapshot will cover — minimal-size processes use the
    default (300 pages); the Apache stand-in passes a realistically large
    image. *)

val main_ctx : app -> ctx
val boot : app -> unit
(** Take the pristine pre-[main] snapshot (§4.1).  Must be called before
    any sthread is created; [BOUNDARY_VAR] declarations must precede it. *)

val kernel : app -> Wedge_kernel.Kernel.t
val live_tags : app -> Wedge_mem.Tag.t list
val set_tag_cache : app -> bool -> unit
(** Enable/disable the userland tag free-list cache (ablation E7). *)

val tag_cache_hits : app -> int
val tag_cache_misses : app -> int
val find_tag_by_addr : app -> int -> Wedge_mem.Tag.t option
val app_of : ctx -> app
val pid : ctx -> int
val getuid : ctx -> int
val proc : ctx -> Wedge_kernel.Process.t

(** {1 Sthread-related calls} *)

val sthread_create : ?spawn:spawn -> ctx -> Sc.t -> (ctx -> int -> int) -> int -> handle
(** [sthread_create parent sc body arg] spawns a default-deny compartment
    holding exactly the privileges in [sc] (plus the pristine snapshot,
    copy-on-write) and runs [body] to completion.  Any exception [body]
    raises — a protection fault, an SELinux denial, a bad descriptor, a
    callgate it was not granted, a plain [Failure] — terminates the
    sthread without propagating; one outside {!fault_reason} is counted
    as ["fault.unexpected"].  Two kinds still propagate: a scheduler
    deadlock, and an exception a harness hook raised
    ({!Wedge_kernel.Kernel.hook_raised}).  A fault while building the
    sthread (an injected ["pool.stamp"] fault) reaps the half-built
    process and reaches the caller.

    [spawn] (default [Boot]) [Stamp image] restores [image] instead, for
    one flat charge: identity comes from the image unless [sc] sets
    it, and [sc]'s grants map on top of the image's pages
    and descriptors, skipping what the image already provides.  It
    counts as a ["pool.stamp"] (stat, span, fault site), not an
    ["sthread_create"].
    @raise Privilege_violation if [sc] exceeds the parent's privileges.
    @raise Invalid_argument if [image] is not a live image of the app. *)

val sthread_join : ctx -> handle -> int
(** The sthread's return value, or -1 if it was killed by a fault. *)

(** {1 Memory-related calls} *)

val tag_new : ?name:string -> ?pages:int -> ctx -> Wedge_mem.Tag.t
(** Create a tag: allocate a segment (reusing the userland tag cache when
    possible, §4.1), map it read-write into the caller, and initialise
    smalloc bookkeeping inside it. *)

val tag_delete : ctx -> Wedge_mem.Tag.t -> unit
(** Delete a tag: a {e global} revocation — the range is unmapped from
    every address space of this kernel (with a TLB shootdown per remote
    space). *)

val smalloc : ctx -> int -> Wedge_mem.Tag.t -> int
val sfree : ctx -> int -> unit
val malloc : ctx -> int -> int
(** Untagged allocation from the sthread's private heap — invisible to
    every other compartment.  Redirected to [smalloc] while
    {!smalloc_on} is active. *)

val free : ctx -> int -> unit
val smalloc_on : ctx -> Wedge_mem.Tag.t -> unit
val smalloc_off : ctx -> unit
val boundary_var : app -> id:int -> name:string -> size:int -> int
(** [BOUNDARY_VAR]: place a global in a distinct page-aligned section,
    excluded from the pristine snapshot; returns its address.  Pre-boot
    only. *)

val boundary_tag : ctx -> id:int -> Wedge_mem.Tag.t
(** [BOUNDARY_TAG]: the tag covering a boundary section. *)

(** {1 Policy-related calls} *)

val sc_create : unit -> Sc.t
val sc_mem_add : Sc.t -> Wedge_mem.Tag.t -> Wedge_kernel.Prot.grant -> unit
val sc_fd_add : Sc.t -> int -> Wedge_kernel.Fd_table.perm -> unit
val sc_sel_context : Sc.t -> string -> unit
val sc_set_uid : Sc.t -> int -> unit
val sc_set_root : Sc.t -> string -> unit

(** {1 Callgate-related calls} *)

val sc_cgate_add :
  ?spawn:spawn ->
  ctx ->
  Sc.t ->
  name:string ->
  entry:(ctx -> trusted:int -> arg:int -> int) ->
  cgsc:Sc.t ->
  trusted:int ->
  gate_id
(** Mint a callgate and add permission to invoke it to [sc].  The entry
    point, permissions [cgsc] and [trusted] argument are stored kernel-side
    and cannot be altered by any caller; [cgsc] must be a subset of the
    creator's privileges.  [spawn] (default [Boot]) builds each
    invocation: [Boot] a fork-priced fresh compartment; [Stamp image] a
    fresh one from [image] (which must carry no tagged memory) for one
    flat charge, no state surviving from one caller to the next; and
    [Recycle] a long-lived member of the gate's name (§3.3, §4.1).  A
    member serves one invocation at a time — with every member busy, the
    invocation builds another — and keeps its heap and stack between
    invocations. *)

val cgate : ctx -> gate_id -> perms:Sc.t -> arg:int -> int
(** Invoke a callgate with additional (subset-checked) permissions [perms]
    — typically read access to the tag holding [arg].  Blocks until the
    gate terminates; a faulting gate yields -1, and a recycled gate
    member that faults is reaped and eagerly respawned rather than
    poisoning the pool. *)

val cgate_delete : ctx -> gate_id -> unit
(** Retire a callgate the caller minted: the app drops it, and later
    invocations fail as an unknown gate.
    @raise Privilege_violation if the caller did not mint it. *)

(** {1 Comparison primitives (baselines)} *)

val fork : ctx -> (ctx -> int) -> handle
(** Classic fork: the child inherits the {e whole} address space (secrets
    included) and every descriptor — the baseline Wedge argues against. *)

val pthread : ctx -> (ctx -> int) -> int

(** {1 Identity (used by authentication callgates)} *)

val set_identity : ctx -> target_pid:int -> ?uid:int -> ?root:string -> unit -> unit

(** {1 Data access (checked + instrumented)} *)

val read_u8 : ctx -> int -> int
val write_u8 : ctx -> int -> int -> unit
val read_u32 : ctx -> int -> int
val write_u32 : ctx -> int -> int -> unit
val read_u64 : ctx -> int -> int
val write_u64 : ctx -> int -> int -> unit
val read_into : ctx -> int -> bytes -> int -> int -> unit
(** [read_into ctx addr buf pos len] reads [len] bytes of tagged memory
    into [buf] at [pos], as {!read_bytes} reads them into a fresh buffer:
    the same checks, charges and events, with no host allocation. *)

val read_bytes : ctx -> int -> int -> bytes
val write_bytes : ctx -> int -> bytes -> unit
val read_string : ctx -> int -> int -> string
val write_string : ctx -> int -> string -> unit
val write_lv : ctx -> int -> string -> unit
(** Length-prefixed (u32) string block — the idiom for passing
    variable-size values through tagged memory. *)

val read_lv : ctx -> int -> string

(** [charge_app ctx ns] charges simulated nanoseconds of application-level
    work to the clock. *)
val charge_app : ctx -> int -> unit

val stat : ctx -> string -> unit
(** Bump a named counter in the kernel's stats table (how servers surface
    fault/recovery counts). *)

val trace_instant : ctx -> string -> unit
(** Record an instant event attributed to the calling compartment's pid
    in the kernel's trace (one branch when tracing is disarmed). *)

val register_metrics : Wedge_sim.Metrics.t -> app -> unit
(** Register every counter surface of this application with a metrics
    registry: kernel stats (traps, faults, supervisor, reaped TLB),
    live per-process TLB counters, the fault plan when one is attached,
    and the engine's tag-cache counters.  One
    {!Wedge_sim.Metrics.to_json} then reads the whole system. *)

val fault_reason : exn -> string option
(** [Some reason] iff the exception is in the named fault class
    (protection fault, SELinux denial, frame exhaustion, injected
    fault, and the classes layers above register with
    [Engine.register_fault_class]): an
    environmental condition rather than a programming error.  A
    compartment dies contained of any exception; this class names its
    reason, and outside it the death counts as ["fault.unexpected"].
    Monitors guard their own per-connection setup work with it, so there
    anything else still propagates. *)

type tlb_stats = Engine.tlb_stats = {
  tlb_hits : int;
  tlb_misses : int;
  tlb_shootdowns : int;
}

val tlb_stats : ctx -> tlb_stats
(** Live software-TLB counters for the calling compartment's address
    space.  Totals across dead processes are folded into the kernel stats
    (keys ["tlb.hit"], ["tlb.miss"], ["tlb.shootdown"]) at reap time. *)

(** {1 Instrumentation (Crowbar attachment points)} *)

val set_instr : ctx -> Wedge_sim.Instr.t -> unit
val instr_of : ctx -> Wedge_sim.Instr.t

(** A declarative profile check attached to a compartment by the Crowbar
    synthesis loader ({!Wedge_crowbar.Synth}): consulted on every data
    access, descriptor operation and callgate invocation of that
    compartment.  [Some msg] denies — the engine raises
    {!Privilege_violation}[ msg], which kills the compartment contained,
    its reason ["policy: " ^ msg] (stat ["policy.deny"], trace instant
    ["policy.violation"]). Complain-mode hooks count and return [None]. *)
type policy_check = Engine.policy_check = {
  pol_mem : addr:int -> len:int -> write:bool -> string option;
  pol_fd : fd:int -> write:bool -> string option;
  pol_gate : string -> string option;
}

val set_policy : ctx -> policy_check option -> unit
val in_function : ctx -> name:string -> ?file:string -> ?line:int -> (unit -> 'a) -> 'a
val stack_frame : ctx -> name:string -> locals:int -> (int -> 'a) -> 'a

(** {1 Descriptors} *)

exception Fd_error of string

val add_endpoint : ctx -> Wedge_kernel.Fd_table.endpoint -> Wedge_kernel.Fd_table.perm -> int
val fd_read : ctx -> int -> int -> bytes
(** [fd_read ctx fd n] reads up to [n] bytes from [fd]; the empty result
    means EOF.  One kernel entry: one trap, the SELinux policy, the
    descriptor's read permission and the installed profile's check.  A
    permitted read of a guarded connection parks in the endpoint's
    [ep_wait] {e before} the trap, so an idle connection enters no
    kernel; a descriptor without read permission raises at once and
    never parks.
    @raise Fd_error on a bad or unreadable descriptor. *)

val fd_write_sub : ctx -> int -> bytes -> int -> int -> unit
(** [fd_write_sub ctx fd b off len] sends the [len] bytes of [b] from
    [off]: one kernel entry, checked like {!fd_read}, charged for [len]
    bytes.  [fd_read] and [fd_write_sub] are the only way a compartment
    moves descriptor bytes, and the endpoint keeps no reference to [b].
    @raise Invalid_argument if the range is not within [b], before the
    kernel entry: no trap, no charge.
    @raise Fd_error on a bad or unwritable descriptor. *)

val fd_write : ctx -> int -> bytes -> unit
(** [fd_write_sub] of all of [b]. *)

val fd_close : ctx -> int -> unit
val vfs_read : ctx -> string -> (string, Wedge_kernel.Vfs.error) result
val vfs_write : ctx -> string -> string -> (unit, Wedge_kernel.Vfs.error) result
val vfs_readdir : ctx -> string -> (string list, Wedge_kernel.Vfs.error) result

(** [caller_pid gctx] is the pid of the sthread that invoked the currently
    running callgate (kernel-provided caller identity, like SO_PEERCRED) —
    what an authentication callgate passes to {!set_identity} to log the
    caller in (§5.2). *)
val caller_pid : ctx -> int option

(** {1 Compromise (the attacker model)} *)

type where = Engine.where =
  | Master  (** the app's original process: the monolithic servers *)
  | Child of int
      (** the n-th sthread or forked child the app starts after arming,
          counted from 1.  A callgate invocation, a recycled member and a
          frozen {!Pool} template are not children. *)

val takeover : app -> where:where -> at:int -> (ctx -> unit) -> unit
(** [takeover app ~where ~at payload] arms a one-shot compromise: at the
    [at]-th kernel entry of the compartment [where] names, [payload]
    runs with that compartment's own [ctx], so it holds exactly that
    compartment's grants — the paper's attacker, who owns the code of an
    exploited compartment.  [at] counts from 1: a [Child n] target's
    entries from its creation, the [Master]'s from arming.  Every system
    call is a kernel entry ({!fd_read}, {!fd_write}, {!cgate},
    {!sthread_create}, {!vfs_read}, {!set_identity}, ...); a
    {!tag_new} served from the tag cache is not.

    The payload runs after the entry's trap and SELinux checks and
    before the call's own work.  The point disarms before the payload
    runs, so the payload's own system calls never re-enter it, and it
    fires at most once.  A target that exits short of its [at]-th entry,
    or a child that never starts, leaves the run unchanged (the former
    disarms the point at the next kernel entry).  Several takeovers may
    be armed at once, each counting on its own.  An exception the payload
    raises is the compartment's own: it kills the compartment, as any
    exception its code raises does.

    Unarmed, the point costs every kernel entry one branch and no
    allocation.
    @raise Invalid_argument if [at] or a [Child] index is below 1. *)

(** {1 Frozen snapshot pools (O(1) spawn and crash recovery)} *)

module Pool : module type of Pool
(** Checkpoint a fully-booted worker once ({!Pool.freeze}); [Stamp image]
    then spawns sthreads and callgate invocations from the frozen image
    at a flat cost independent of address-space size — the servers'
    default for every per-connection compartment. *)
