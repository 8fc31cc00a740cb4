(** Clock-stamped structured tracing for the simulated machine.

    A trace records spans ({!span_begin}/{!span_end}) and instant events
    into a preallocated ring buffer, each stamped with the simulated clock
    ({!Clock.now}), the simulated pid that caused it, and the scheduler
    fiber that was running ({!Fiber.fiber_id}).  Because the clock is
    simulated, two runs of the same seeded workload produce byte-identical
    exports — a trace doubles as a replay-debugging artifact for the
    fault-injection soaks.

    Cost discipline: a disabled trace costs the caller a single branch
    ([if Trace.enabled t]) and allocates nothing — every recording
    function takes only unboxed ints and already-allocated strings, so
    instrumentation can stay in hot paths (TLB misses, channel reads)
    permanently.  Sites that would need to build an event name
    dynamically must guard with {!enabled} first so the disabled path
    never concatenates.

    Export is Chrome trace format (chrome://tracing, Perfetto):
    {!to_chrome_json}. *)

type t

val create : ?capacity:int -> clock:Clock.t -> unit -> t
(** A trace attached to [clock], initially {e disabled} with no buffer
    allocated; call {!arm} to start recording.  [capacity] (default
    65536 events) is remembered as the default for {!arm}. *)

val null : t
(** The shared always-disabled trace: the default for components created
    without one.  {!arm} on it raises [Invalid_argument]. *)

val arm : ?capacity:int -> t -> unit
(** Allocate the ring buffer (if needed) and start recording.  Clears
    previously recorded events. *)

val disarm : t -> unit
(** Stop recording; the buffer and its events are kept for export. *)

val enabled : t -> bool
(** The single branch hot paths pay when tracing is off. *)

val clear : t -> unit
(** Drop all recorded events (the buffer stays allocated). *)

(** {2 Recording}

    All recording functions are no-ops on a disabled trace and never
    allocate in that case (labelled, non-optional arguments only). *)

val span_begin : t -> name:string -> pid:int -> unit
val span_end : t -> name:string -> pid:int -> unit
(** A span covers a duration: compartment execution, a callgate
    invocation, a drain.  Begin/end pairs are matched by Chrome on
    (pid, tid) nesting order. *)

val instant : t -> name:string -> pid:int -> unit
(** A point event: a syscall trap, a TLB miss, an admission decision. *)

val count : t -> name:string -> pid:int -> value:int -> unit
(** A point event carrying a value (e.g. bytes moved), exported as a
    Chrome counter event. *)

(** {2 Inspection and export} *)

val recorded : t -> int
(** Events currently held (≤ capacity). *)

val dropped : t -> int
(** Events overwritten because the ring wrapped. *)

val to_chrome_json : t -> string
(** Deterministic Chrome-trace-format JSON ({"traceEvents": [...]}).
    Timestamps are simulated nanoseconds rendered as microseconds with
    three decimals; event order is chronological (ring order). *)

val validate_chrome_json : string -> (unit, string) result
(** Schema validation for the CI smoke gate: full JSON syntax check plus
    the Chrome-trace shape (top-level object, "traceEvents" array, every
    event an object with string "name"/"ph" and numeric "ts"/"pid"/"tid").
    No external JSON library required. *)

(** Observation for tests only: nothing outside [test/] names it. *)
module For_testing : sig
  val instants_named : t -> name:string -> int
  (** How many instants named [name] survive in the ring buffer.  Events
      pushed out by wrap-around are not counted. *)
end
