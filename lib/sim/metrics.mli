(** Typed metrics registry: one place to read every counter in the system.

    {!Stats} stays the write-side primitive (a bump is one hashtable
    lookup); this module is the read side.  Components register {e
    sources} — closures producing [(key, value)] pairs on demand — and a
    read merges them all into one sorted list, summing duplicate keys (so
    e.g. live per-process TLB counters and already-reaped ones under the
    same key add up to the true total).

    Two metric kinds:
    - {e counters}: monotonic, e.g. a registered {!Stats} table;
    - {e gauges}: instantaneous values read from a source at snapshot
      time (queue depths, active connections, cache sizes).

    {!get} and {!to_json} are deterministic (sorted keys, integer
    values) so they can be asserted byte-for-byte in tests. *)

type t

type kind = Counter | Gauge

val create : unit -> t

(** {2 Sources} *)

val register :
  t -> name:string -> ?kind:kind -> (unit -> (string * int) list) -> unit
(** [register t ~name read] adds a source; [read] is called at every
    read.  Registering the same [name] again replaces the previous
    source.  [kind] (default [Gauge]) controls which section of
    {!to_json} the source's keys land in. *)

val register_stats : t -> name:string -> Stats.t -> unit
(** Expose an existing counter table as a [Counter] source. *)

val register_fault_plan : t -> Wedge_fault.Fault_plan.t -> unit
(** Expose a fault plan: ["fault.injected"] plus ["fault.ops.<site>"] per
    rule site. *)

(** {2 Reading} *)

val get : t -> string -> int
(** One key, summed over every source that has it; 0 if absent. *)

val to_json : t -> string
(** Deterministic JSON: [{"counters":{...},"gauges":{...}}], keys sorted
    within each section. *)
