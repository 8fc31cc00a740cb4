(** Frozen compartment snapshot pools: O(1) spawn and crash recovery.

    Sthread creation is fork-priced — a [pte_copy] per pristine page and
    an [fd_dup] per granted descriptor — so spawn (and therefore crash
    recovery) scales with the image.  A pool checkpoints one fully-booted
    worker instead: {!freeze} builds a template the expensive way (with
    an optional warm-up body so demand-mapped heap and stack pages join
    the image), records private writable pages copy-on-write, builds the
    image, which holds one reference on every frame of the template's
    address space, captures the descriptor table and identity, and reaps
    the template.  The
    spawn [Engine.Stamp image] then restores the whole image into a
    fresh sthread ({!Engine.sthread_create}) or callgate invocation
    ({!Engine.sc_cgate_add}) for one flat [pool_stamp] charge,
    independent of how many pages it holds — per-connection grants ride
    in at the usual per-page/per-fd price, keeping the O(1) in the image,
    where the bytes are.

    The O(1) holds on the host clock too.  {!freeze} builds the image's
    page table and takes its frame references once
    ({!Wedge_kernel.Vm.image}); a stamp points the child's address space
    at that one shared, read-only table and adds the child as one of the
    image's holders, copying and referencing nothing per page, and its
    reap drops only what the child owns, so a stamp and its reap take
    the same few words and the same host time whatever the image
    size.

    Stamped children never dirty the image: their writes to frozen pages
    break copy-on-write into private frames, a write, protection change
    or retag of a page seen through the shared table first copies its
    entry into the child's own table, and tagged grant pages keep
    their grant protection (tag memory is shared-mutable by design).
    Fault sites ["pool.freeze"] and ["pool.stamp"] inject mid-operation;
    the unwind reaps the half-built process, which returns every frame
    reference and image hold it took and leaves the frozen image
    pristine — an invariant the [lib/check] refcount oracle re-derives
    independently (each image counts its pages once, and its holders
    are its registration plus the address spaces that map it). *)

type t = Engine.image
(** A frozen image; the engine's [Stamp] spawn carries one. *)

val freeze :
  ?name:string -> ?warm:(Engine.ctx -> unit) -> Engine.ctx -> Sc.t -> t
(** [freeze parent sc] builds a worker from [sc] (validated against
    [parent] like any sthread policy), runs [warm] in it if given, and
    checkpoints its entire address space plus descriptor table and
    identity into a frozen image registered on the app.  The
    template pays the full fork-priced boot exactly once and is reaped
    before [freeze] returns.  Raises [Invalid_argument] if the app is
    not booted or an image named [name] already exists; injected faults
    at site ["pool.freeze"] propagate after a clean unwind. *)

val discard : Engine.ctx -> t -> unit
(** Unregister the image and drop the registry's hold on it
    ({!Wedge_kernel.Vm.release_image}).  With no stamped child alive
    that drops the image's frame references; else they die with the last
    child's reap, every page the image holds included, even one each
    child has unmapped or broken away from.  Idempotent; stamping from a
    discarded pool raises [Invalid_argument]. *)

val find : Engine.app -> string -> t option
(** The app's live image called [name], if one is frozen. *)

val name : t -> string
