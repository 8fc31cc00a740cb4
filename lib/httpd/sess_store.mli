(** The SSL session cache held in tagged memory.

    Cached master secrets are as sensitive as live ones — an attacker
    holding the cache decrypts every resumed session — so the partitioned
    servers keep the cache in its own tag, granted only to the
    session-establishment callgates.  An exploited worker cannot even name
    it.  A fixed capacity of 64 sessions with FIFO eviction, like
    Apache's SSL session cache. *)

type t

val create : ?enabled:bool -> Wedge_core.Wedge.ctx -> t
(** Allocate and format the cache in a fresh tag.  A disabled cache
    stores nothing and finds nothing. *)

val tag : t -> Wedge_mem.Tag.t

val store : Wedge_core.Wedge.ctx -> t -> sid:string -> master:bytes -> unit
(** Insert or update; evicts the oldest entry when full.  The caller's
    context must hold read-write on the cache tag. *)

val lookup : Wedge_core.Wedge.ctx -> t -> sid:string -> bytes option
