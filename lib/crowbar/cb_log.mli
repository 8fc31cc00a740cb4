(** cb-log: the run-time instrumentation half of Crowbar (§4.2).

    The paper builds cb-log on Pin; here it attaches to the explicit
    instrumentation hooks ({!Wedge_sim.Instr}) that all simulated memory
    accessors call.  Three modes reproduce the three bars of Figure 9:

    - native ({!Wedge_sim.Instr.null}): no instrumentation at all;
    - {!pin}: Pin alone — basic blocks are instrumented once when first
      fetched (a per-function translation cost);
    - {!create}: full cb-log — every load and store is recorded with a
      complete backtrace and allocation-site attribution. *)

type t

val create : unit -> t
val instr : t -> Wedge_sim.Instr.t
val trace : t -> Trace.t

(** Pin-without-instrumentation: models dynamic binary translation. *)
type pin

val pin : unit -> pin
val pin_instr : pin -> Wedge_sim.Instr.t
