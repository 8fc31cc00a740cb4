(** Simulated duplex byte-stream channels (TCP-connection stand-ins).

    Reads park the calling {!Wedge_sim.Fiber} on the direction's interest
    set until data arrives or the peer closes; a blocking read charges
    half a network round trip to the simulated clock when one is
    attached.  Every direction and listener owns its interest set from
    birth.  Endpoints convert to
    {!Wedge_kernel.Fd_table.endpoint}s so compartments reach the network
    only through descriptor permissions. *)

exception Refused of string
(** A connection attempt was refused: the listener's accept queue is at
    its backlog, or the listener is down (shut down / draining).  Part of
    the engine's contained-fault class (registered at link time), so a
    supervised compartment that reconnects after a drain dies contained
    rather than as a programming error. *)

exception Stalled of string
(** A bounded write parked at the high watermark when the whole system
    stalled: its peer will never read.  The direction is torn down first.
    Part of the engine's contained-fault class like {!Refused}, so the
    writing compartment dies contained, never in a scheduler deadlock. *)

type ep
(** One end of a duplex channel. *)

val pair :
  ?clock:Wedge_sim.Clock.t ->
  ?costs:Wedge_sim.Cost_model.t ->
  ?faults:Wedge_fault.Fault_plan.t ->
  ?trace:Wedge_sim.Trace.t ->
  ?capacity:int ->
  unit ->
  ep * ep
(** A connected pair of endpoints.  With [faults] attached, reads roll site
    ["chan.read"] and writes ["chan.write"]: [Drop]/[Truncate]/[Reset]
    tear the affected direction(s) down (readers see EOF; writers raise
    {!Wedge_fault.Fault_plan.Injected} — never a blocked peer, so fault
    injection cannot deadlock the cooperative scheduler), [Delay n]
    charges the attached clock, and [Crash] raises [Injected]
    immediately.

    [capacity] bounds in-flight bytes per direction: a writer at the high
    watermark parks and resumes once the reader drains to half.  If the
    whole system stalls while a writer is parked (the peer will never
    read), the write is the first wait the scheduler resolves
    ({!Wedge_sim.Fiber.Shed_write}) and the write raises {!Stalled}. *)

val read : ep -> int -> bytes
(** Up to [n] bytes; blocks until at least one byte or EOF; the empty result
    means the peer closed. *)

val read_exact : ep -> int -> bytes option
(** Exactly [n] bytes into one preallocated buffer, or [None] if the peer
    closes first or a faulted direction stops making progress (two
    consecutive empty reads without EOF terminate the loop). *)

val write_sub : ep -> bytes -> int -> int -> unit
(** [write_sub ep b off len] sends the [len] bytes of [b] from [off]: the
    channel's one write.  The bytes are copied into the direction's
    buffer, so [b] may be reused as soon as it returns.  With [faults], a
    [Truncate] delivers [b.[off]] alone.
    @raise Invalid_argument if the range is not within [b], before any
    fault roll or byte moves. *)

val write : ep -> bytes -> unit
(** [write_sub] of all of [b]. *)

val write_string : ep -> string -> unit

val wait_rx : ?bytes:int -> ep -> unit
(** Park until [bytes] (default 1) are buffered or the direction closed
    — zero scheduler steps while idle. *)

val close : ep -> unit

val abort : ep -> unit
(** Forced teardown (RST): both directions die, pending bytes are lost;
    subsequent reads see EOF, writes raise a contained
    {!Wedge_fault.Fault_plan.Injected}.  What deadline enforcement and
    drain force-close use. *)

val bytes_in_flight : ep -> int
(** Bytes buffered toward this endpoint. *)

val to_endpoint : ep -> Wedge_kernel.Fd_table.endpoint
(** Wrap as a descriptor target.  Its [ep_wait] returns at once: a read
    blocks inside {!read}, after the syscall trap, and a blocked read
    charges the half round trip. *)

(** {2 Listeners} *)

type listener

val listener :
  ?clock:Wedge_sim.Clock.t ->
  ?costs:Wedge_sim.Cost_model.t ->
  ?faults:Wedge_fault.Fault_plan.t ->
  ?trace:Wedge_sim.Trace.t ->
  ?backlog:int ->
  ?capacity:int ->
  unit ->
  listener
(** [faults] is inherited by every accepted connection; {!connect} itself
    rolls site ["chan.connect"] (a fired fault refuses the connection by
    raising {!Wedge_fault.Fault_plan.Injected}).  [trace] records
    ["chan.connect"/"chan.accept"/"chan.refused"] instants and is
    inherited by every connection (["chan.read"/"chan.write"] counters,
    ["chan.abort"] instants).  [backlog] (default 128) caps the accept
    queue: overflow connects raise {!Refused}.  [capacity] is inherited
    by every connection's two directions. *)

val connect : listener -> ep
(** Client side of a fresh connection; the server side is queued for
    {!accept}.
    @raise Refused when the accept queue is at its backlog or the
    listener is down ([refused] counts both). *)

val accept : listener -> ep option
(** Parks until a connection arrives or the listener shuts down.  A
    connect burst wakes the acceptor once — the level-triggered re-check
    then drains the whole backlog without re-parking between
    connections. *)

val shutdown : listener -> unit
(** Stop accepting; still-queued (never-to-be-accepted) connections are
    reset so their clients see EOF rather than blocking forever. *)

val register_metrics : Wedge_sim.Metrics.t -> listener -> unit
(** Expose ["chan.refused"] (counter: connects refused over this
    listener's lifetime, by backlog overflow or a down listener) and
    ["chan.pending"] (gauge) to a metrics registry, keyed
    ["chan.listener"]. *)
