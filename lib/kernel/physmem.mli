(** Simulated physical memory: 4 KiB frames with reference counts.

    Frames are shared between address spaces for copy-on-write (the pristine
    snapshot of §4.1) and for tagged-memory mappings; the reference count
    decides whether a COW write can claim the frame in place or must copy.

    Host memory is demand-zero, as in a real kernel: a frame that was never
    written is backed by its kernel's single shared zero page, and gets a
    private 4 KiB host buffer on its first write ({!get_mut}).  Which frames
    have host bytes is this module's decision alone; frame numbers,
    refcounts, {!frames_in_use} and the ["physmem.alloc"] fault roll do
    not depend on it, and nothing here
    charges simulated time. *)

val page_size : int
(** 4096. *)

exception Enomem
(** Frame allocation failed: an attached fault plan fired at site
    ["physmem.alloc"].  The engine turns this into compartment
    termination. *)

type t

val create : ?faults:Wedge_fault.Fault_plan.t -> unit -> t

val alloc : t -> int
(** Allocate a frame with reference count 1; returns the frame number.  The
    frame reads as zeros and has no host bytes of its own: it is backed by
    the shared zero page until its first {!get_mut}.
    @raise Enomem on an injected allocation failure. *)

val get : t -> int -> bytes
(** The read view of a live frame: its private bytes once written, the
    shared zero page before that.  O(1).  Never write through the read
    view — on an unwritten frame that would write into every unwritten
    frame of the kernel at once ({!zero_page_clean} is the oracle's check).
    @raise Invalid_argument on a dead frame. *)

val get_mut : t -> int -> bytes
(** The write view of a live frame: its private bytes, allocated zeroed on
    the frame's first write.  Only the MMU ([Vm]) writes frames, so only
    [Vm] takes this view; [bin/check.sh] fails on any other use in [lib/].
    @raise Invalid_argument on a dead frame. *)

val scrub : t -> int -> unit
(** Zero a live frame for reuse: a written frame is zero-filled in place
    (it keeps its host bytes); an unwritten one already reads zero and
    costs nothing.
    @raise Invalid_argument on a dead frame. *)

val incref : t -> int -> unit
val decref : t -> int -> unit
(** [decref] frees the frame, and drops its host bytes, when the count
    reaches zero. *)

val refcount : t -> int -> int
val frames_in_use : t -> int

val host_frames : t -> int
(** Live frames with private host bytes.  O(1). *)

val zero_page_clean : t -> bool
(** Whether the shared zero page still reads all zeros.  Anything else
    means a write went through {!get} to an unwritten frame. *)

val iter_live : t -> (int -> int -> unit) -> unit
(** [iter_live t f] calls [f frame refcount] for every live frame, in
    frame order.  Pure (no allocation charges, no fault rolls) — the
    refcount invariant oracle's view of ground truth. *)
