(** Sharded multi-kernel fabric: N independent simulated kernels (each
    with its own physical memory, page tables, fd space, clock and
    reactor) joined by directed cross-shard channels, plus the
    cross-shard TLB-shootdown protocol that keeps tag deletion a
    {e global} revocation, and a front door that hashes incoming
    connections to shards.

    Shards are parallel machines: each shard's simulated clock advances
    independently, so an N-shard cluster serves N connection streams in
    parallel simulated time (a speedup that holds by construction:
    shards share nothing but shootdowns).  One cooperative
    {!Wedge_sim.Fiber} scheduler multiplexes the whole cluster (it is a
    global singleton); per-shard scheduling means per-shard reactors
    (timers) and clocks.

    {b Global tags.}  A {!gtag} is a tag replicated on every shard — the
    multikernel form of a shared memory grant.  Deleting {e any} replica
    (plain {!Wedge_core.Wedge.tag_delete}; the fabric rides the engine's
    post-delete hook) completes the local revocation, then posts a
    shootdown request on the link to every peer shard, where a link
    handler revokes the local replica (bumping the receiving kernel's
    ["tlb.cross_shard_shootdown"] stat and charging one
    [tlb_shootdown]), and acks; the delete returns only after every ack
    — the synchronous contract that makes frame reuse safe.  Peers are
    walked in ascending shard id and handlers wake in fiber-id order, so
    shootdown traces and exploration digests are deterministic. *)

type shard = {
  sid : int;
  kernel : Wedge_kernel.Kernel.t;
  app : Wedge_core.Engine.app;
  reactor : Wedge_sim.Reactor.t;
}

type t

val create : (Wedge_kernel.Kernel.t * Wedge_core.Engine.app) array -> t
(** Wrap caller-built worlds (index = shard id) into a fabric: builds a
    reactor per shard on that shard's clock, the directed link channels
    (one per ordered shard pair), and arms each app's
    [on_tag_delete] hook with the shootdown broadcast.  Use this when
    shards carry server environments ({!Wedge_httpd.Httpd_env} etc.)
    that build their own apps.
    @raise Invalid_argument on an empty array. *)

val make : n:int -> unit -> t
(** Convenience: [n] bare booted worlds on the default cost model. *)

val n : t -> int
val shards : t -> shard array
val shard : t -> int -> shard

val start : t -> unit
(** Spawn the link-handler fibers (one per directed link, parked on its
    channel).  Must run inside [Fiber.run]; required
    before any gtag delete on a fabric with more than one shard. *)

val stop : t -> unit
(** Close every link (handlers wake to EOF and retire) and wait for them
    — call before the end of the run, or the parked handlers read as a
    deadlock.  Idempotent. *)

val hook : t -> unit -> unit
(** [on_switch] for [Fiber.run]: tick every shard's reactor.  Composed
    once by {!create}, so [hook t ()] at every switch allocates nothing.
    Compose manually when oracle hooks are also armed. *)

val idle : t -> unit -> bool
(** [on_idle] for [Fiber.run]: {!Wedge_sim.Reactor.idle_multi} over the
    shard reactors — wake the shard whose earliest timer is nearest on
    its own clock. *)

(** {2 Global tags} *)

type gtag

val gtag_new : ?name:string -> ?pages:int -> t -> gtag
(** Replicate a fresh tag on every shard (via each shard's main
    context). *)

val gtag_live : gtag -> bool

val replica : gtag -> sid:int -> Wedge_mem.Tag.t
(** The local replica on shard [sid] — grant it to that shard's
    compartments like any tag. *)

val gtag_delete : t -> sid:int -> gtag -> unit
(** Delete the gtag from shard [sid] (equivalent to
    [Wedge.tag_delete (main ctx of sid) (replica ~sid g)]): local
    revocation, then the cross-shard shootdown broadcast; returns after
    every peer acked.  Must run inside [Fiber.run] with {!start}ed
    handlers when the fabric has peers. *)

val cross_shard_shootdowns : t -> int
(** Sum of ["tlb.cross_shard_shootdown"] over every shard's kernel:
    remote shootdown requests serviced. *)

val self_check : t -> string option
(** Fabric audit, sound at every scheduler sync point: a live gtag has
    all replicas live and nothing in flight; a dead gtag with no
    outstanding acks has {e no} live replica anywhere (a live one is a
    stale grant — the bug the protocol exists to prevent); mid-flight
    live replicas never exceed outstanding acks; the relay re-entrancy
    flag is clear.  [None] when consistent. *)

(** {2 Front door} *)

val route : t -> key:string -> int
(** The FNV-1a (32-bit) hash of the connection key, mod [n]: stable
    across runs and hosts, so a key's shard assignment never moves. *)

type front

val front :
  ?costs:Wedge_sim.Cost_model.t ->
  ?faults:Wedge_fault.Fault_plan.t ->
  ?backlog:int ->
  ?header_deadline_ns:int ->
  max_conns:int ->
  t ->
  front
(** Per-shard listener + {!Guard} on the shard's reactor (its clock and
    timers); [max_conns] is per shard.  [costs] and [faults] apply to
    the listeners' channels. *)

val front_fabric : front -> t
val front_listener : front -> int -> Chan.listener
val front_guard : front -> int -> Guard.t

val front_connect : front -> key:string -> int * Chan.ep
(** Hash [key] to a shard and connect to its listener; returns the shard
    id with the client endpoint.
    @raise Chan.Refused when that shard's backlog is full. *)

val front_drain : front -> unit
(** {!Guard.drain} every shard's guard against its listener. *)
