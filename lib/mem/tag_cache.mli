(** Userland free-list of deleted tag segments (§4.1).

    [tag_new] system-call and bookkeeping-initialisation overhead is
    mitigated by caching deleted tags and reusing them when a request of
    the same page count arrives.  For secrecy the reused memory is always
    scrubbed: the cache holds references to the old frames, so without
    scrubbing the previous owner's data would be visible.  The paper
    reports this cache improved partitioned Apache throughput by 20%
    (ablation E7, which toggles it with {!set_enabled}). *)

type entry = {
  base : int;
  pages : int;
  frames : int list;  (** cached physical frames (one reference held) *)
}

type t

val create : Wedge_kernel.Physmem.t -> t
(** An enabled, empty cache. *)

val set_enabled : t -> bool -> unit

val put : t -> entry -> unit
(** Cache a deleted tag's range and frames (takes references on the
    frames).  Drops the entry (releasing frames) when the cache is
    disabled. *)

val take : t -> pages:int -> entry option
(** Pop a cached range with exactly [pages] pages, scrubbing its frames
    through {!Wedge_kernel.Physmem.scrub}: a written frame is zero-filled
    in place, an unwritten one costs nothing. *)

val entries : t -> entry list
(** Every cached entry, in no particular order.  The refcount invariant
    oracle uses this to account for the one reference the cache holds on
    each cached frame. *)

val hits : t -> int
val misses : t -> int

val scrubbed_pages : t -> int
(** Total pages scrubbed on reuse.  A counter, deliberately not a clock
    charge: billing [page_scrub] per reused page would erase the cheap
    tag-reuse effect the cache exists to reproduce (Figure 8); the
    counter keeps the secrecy work observable without distorting it. *)
