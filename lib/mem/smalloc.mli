(** A dlmalloc-derived boundary-tag allocator whose bookkeeping lives inside
    the simulated segment it manages (§4.1: "The smalloc implementation is
    derived from dlmalloc").

    Because every bookkeeping read and write goes through the caller's
    {!Wedge_kernel.Vm} view, allocating from a tag requires the caller to
    hold read-write permission on that tag — an sthread cannot even
    traverse the free list of memory it was not granted.

    Segment layout: a 32-byte header (magic, free-list head, segment end),
    then boundary-tagged chunks.  Chunk header and footer each hold the
    chunk size with an in-use bit; free chunks carry next/prev links. *)

exception Out_of_tag_memory of { base : int; requested : int }

val init : Wedge_kernel.Vm.t -> base:int -> size:int -> unit
(** Format a fresh segment of [size] bytes starting at [base]. *)

val prefill_image : base:int -> size:int -> (int * int) list
(** The (address, u64) words [init] would write for a segment of [size]
    bytes at [base] — the "pre-initialized smalloc bookkeeping structures"
    copied on tag reuse instead of re-running initialisation (§4.1). *)

val alloc : Wedge_kernel.Vm.t -> base:int -> int -> int
(** [alloc vm ~base n] returns the address of [n] fresh usable bytes.
    @raise Out_of_tag_memory when no chunk fits. *)

val free : Wedge_kernel.Vm.t -> base:int -> int -> unit
(** [free vm ~base ptr] releases an allocation, coalescing with free
    neighbours.  [ptr] is validated before the allocator trusts its
    boundary tags — alignment, range within the segment, sane header,
    header/footer agreement.
    @raise Invalid_argument on a wild/corrupt pointer or double free. *)

val check : Wedge_kernel.Vm.t -> base:int -> unit
(** Walk the whole segment validating boundary tags and the free list
    (link sanity, no cycles, prev/next symmetry, free-chunk coverage);
    raises [Invalid_argument] on corruption (for tests). *)

val is_segment : read:(int -> int) -> base:int -> bool
(** Whether an initialised segment lives at [base] (magic probe) — how an
    oracle decides which tags/heaps to walk. *)

val check_reader : read:(int -> int) -> base:int -> unit
(** {!check} parameterized over the u64-word reader, so an invariant
    oracle can validate a segment through a raw page-table walk — no
    clock charges, no TLB pollution, no injected-fault rolls — without
    perturbing the schedule under test.
    @raise Invalid_argument on corruption. *)

(** Observation for tests only: nothing outside [test/] names it. *)
module For_testing : sig
  val usable_size : Wedge_kernel.Vm.t -> base:int -> ptr:int -> int
  (** Usable bytes of a live allocation; validates [ptr] like {!free}.
      @raise Invalid_argument on a wild/corrupt/free pointer. *)

  val free_bytes : Wedge_kernel.Vm.t -> base:int -> int
  (** Total bytes on the free list. *)
end
