(** Invariant oracles over kernel ground truth.

    Wired to sync points — every context switch ({!hook} as
    [Fiber.run ~on_switch]) and/or every system-call entry
    ({!install_syscall_hook}) — an oracle re-derives from first
    principles the bookkeeping the kernel maintains incrementally:

    - frame refcounts == each address space's own page-table entries
      + one per page of each image in use (the pristine snapshot, every
      frozen image, and a discarded image some live address space still
      maps through) + live tag registries + tag-cache entries;
    - each of those images has as many holders as it should: one for
      its registration (pristine, or frozen until discard) plus one per
      live address space whose table uses it as base;
    - every servable TLB entry agrees with the page table;
    - every smalloc segment (live tags, per-process heaps) has intact
      boundary tags and a sound free list;
    - frozen snapshot-pool images stay immutable: no address space maps
      a COW-frozen frame writable — a stamped child's write must break
      onto a private frame, never onto the checkpoint;
    - the shared page table of the pristine snapshot and of every live
      frozen image still holds exactly the records it was built from
      (same vpns, frames, protection and tags): no compartment's write,
      protection change or retag reached a table its siblings map;
    - every registered {!Wedge_net.Guard}'s counters agree with its
      connection list;
    - the scheduler's interest sets agree with its parked table
      ({!Wedge_sim.Fiber.audit}): no lost wakeup, no waiter on a dead
      set, no parked fiber without a registration.

    All reads go through raw page-table walks and frame bytes — no
    clock charges, no TLB pollution, no injected-fault rolls — so the
    schedule under test is not perturbed by being watched. *)

exception Violation of string

type t

val create : Wedge_kernel.Kernel.t -> t

val set_app : t -> Wedge_core.Engine.app -> unit
(** Attach the engine application so the refcount oracle can account for
    the registered images (pristine snapshot, frozen images), tag
    registry and tag cache, and the smalloc oracle can find tag
    segments.  Without an app only kernel-level invariants (refcounts
    from mappings and mapped images alone, TLBs) run. *)

val add_guard : t -> ?name:string -> Wedge_net.Guard.t -> unit
val add_invariant : t -> name:string -> (unit -> string option) -> unit
(** Register a scenario-specific invariant; [Some msg] means violated. *)

val check : t -> unit
(** Run every invariant once.
    @raise Violation on the first disagreement with ground truth. *)

val global_sweep : ?fabric:Wedge_net.Shard.t -> t list -> unit
(** Cluster-wide sweep for a sharded world: run {!check} on every
    shard's oracle (violations relabelled with the kernel's shard id),
    then — frames never cross shard boundaries, so per-shard refcount
    sweeps compose — audit the one genuinely global invariant via
    {!Wedge_net.Shard.self_check} when [fabric] is given: a deleted
    global tag has no live replica on any shard.
    @raise Violation on the first disagreement. *)

val checks_run : t -> int
(** How many times {!check} has run (for overhead reporting). *)

val hook : t -> unit -> unit
(** [Fiber.run ~on_switch:(Oracle.hook t)] checks at every 7th context
    switch (prime, so sampling never phase-locks with periodic fiber
    patterns). *)

val install_syscall_hook : t -> unit
(** Check on entry to every system call ({!Wedge_kernel.Kernel}'s
    [on_syscall]), before the trap charges anything. *)

val remove_syscall_hook : t -> unit

(** {1 Resource return} *)

type holdings
(** What a master holds for its connections: callgates, open descriptors
    and live tags. *)

val holdings : Wedge_core.Engine.app -> holdings
(** The app's master holdings now; record them before serving. *)

val check_returned : what:string -> Wedge_core.Engine.app -> holdings -> unit
(** After a drain, with no connection active, the master must hold
    exactly what it held before serving: every per-connection callgate,
    descriptor and tag released.
    @raise Violation on any difference. *)
