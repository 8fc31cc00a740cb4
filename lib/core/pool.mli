(** Frozen compartment snapshot pools: O(1) crash recovery.

    Sthread creation is fork-priced — a [pte_copy] per pristine page and
    an [fd_dup] per granted descriptor — so spawn (and therefore crash
    recovery) scales with the image.  A pool checkpoints one fully-booted
    worker instead: {!freeze} builds a template the expensive way (with
    an optional warm-up body so demand-mapped heap and stack pages join
    the image), pins every frame of its address space with an extra
    reference, records private writable pages copy-on-write, captures
    the descriptor-table and rlimit shape, and reaps the template.
    {!stamp} then restores the whole image into a fresh sthread for one
    flat [pool_stamp] charge, independent of how many pages it holds —
    per-connection grants ride in through [extra] at the usual per-page/
    per-fd price, keeping the O(1) in the image, where the bytes are.
    {!sc_cgate_add} mints a callgate whose every invocation is a fresh
    compartment installed from the image by the same routine.

    The O(1) holds on the host clock too.  {!freeze} builds the image's
    page table once ({!Wedge_kernel.Vm.image}); a stamp points the
    child's address space at that one shared, read-only table instead
    of copying it, taking only a frame reference per page, so a stamp
    and its reap allocate the same few words whatever the image size.

    Stamped children never dirty the image: their writes to frozen pages
    break copy-on-write into private frames, a write, protection change
    or retag of a page seen through the shared table first copies its
    entry into the child's own table, and tagged grant pages keep
    their grant protection (tag memory is shared-mutable by design).
    Fault sites ["pool.freeze"] and ["pool.stamp"] inject mid-operation;
    the unwind reaps the half-built process, which returns every frame
    reference it took and leaves the frozen image pristine — an
    invariant the [lib/check] refcount oracle re-derives independently
    (frozen images are pristine-like frame holders). *)

type t = Engine.image
(** A frozen image; the engine's [Stamp] spawn carries one. *)

val freeze :
  ?name:string -> ?warm:(Engine.ctx -> unit) -> Engine.ctx -> Sc.t -> t
(** [freeze parent sc] builds a worker from [sc] (validated against
    [parent] like any sthread policy), runs [warm] in it if given, and
    checkpoints its entire address space plus descriptor table, rlimit
    shape and identity into a frozen image registered on the app.  The
    template pays the full fork-priced boot exactly once and is reaped
    before [freeze] returns.  Raises [Invalid_argument] if the app is
    not booted or an image named [name] already exists; injected faults
    at site ["pool.freeze"] propagate after a clean unwind. *)

val stamp :
  ?instr:Wedge_sim.Instr.t ->
  ?extra:Sc.t ->
  Engine.ctx ->
  t ->
  (Engine.ctx -> int -> int) ->
  int ->
  Engine.handle
(** [stamp parent pool fn arg] creates a new sthread whose address space
    is the frozen image, bulk-installed for one flat [pool_stamp] charge,
    then runs [fn] in it like {!Engine.sthread_create} (same containment,
    same handle).  [extra] carries per-invocation grants — tags, fds,
    identity and limit overrides — validated against [parent] and mapped
    at the usual per-page/per-fd cost on top of the image (entries the
    image already provides are skipped).  Identity and limits default to
    the frozen template's.  Injected faults at site ["pool.stamp"]
    propagate after the half-stamped child is reaped — refcounts clean,
    image untouched. *)

val sc_cgate_add :
  t ->
  Engine.ctx ->
  Sc.t ->
  name:string ->
  entry:(Engine.ctx -> trusted:int -> arg:int -> int) ->
  cgsc:Sc.t ->
  trusted:int ->
  Engine.gate_id
(** [sc_cgate_add pool creator sc ...] is {!Wedge.sc_cgate_add} with
    every invocation stamped: a fresh compartment whose address space is
    [pool]'s image, installed for one flat [pool_stamp] charge instead of
    a [pte_copy] per pristine page, then given the gate's own identity,
    limits, tag grants, creator-resolved descriptors and the caller's
    extras exactly like a fork-priced gate.  Only the pages come from the
    image, so it must carry no tagged memory.  Each invocation still
    starts from the pristine image: no state survives from one caller to
    the next, unlike a recycled gate.
    @raise Invalid_argument if [pool] is not a live image of [creator]'s
    app. *)

val discard : Engine.ctx -> t -> unit
(** Drop the image's frame references and unregister it.  Frames still
    mapped by running stamped children survive on their own references.
    Idempotent; stamping from a discarded pool raises
    [Invalid_argument]. *)

val find : Engine.app -> string -> t option
(** The app's live image called [name], if one is frozen. *)

val name : t -> string
val frozen_pages : t -> int
(** Pages in the frozen image (what one {!stamp} maps for its flat
    charge). *)

val is_live : t -> bool
