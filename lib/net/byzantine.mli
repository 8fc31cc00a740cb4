(** Hostile-client behaviors (flood, slow-loris, oversized request,
    half-close, silent holder) for exercising the {!Guard} admission
    layer.  Each behavior runs one complete client script in the calling
    fiber and records exactly one outcome in its {!tally}, so a driver
    spawning N clients can assert the outcomes sum back to N.  Protocol
    specifics are parameters ([request] bytes; [is_rejection] recognises
    the server's busy banner), so the same behaviors drive HTTP, POP3
    and SSH servers. *)

type tally = {
  mutable completed : int;
  mutable refused : int;  (** refused at the listener backlog *)
  mutable rejected : int;  (** admitted, then sent a busy rejection *)
  mutable cut : int;  (** reset mid-script (deadline cut, drain, fault) *)
  mutable errors : int;
}

val tally : unit -> tally
val total : tally -> int
val oneshot :
  tally -> Chan.listener -> request:string -> is_rejection:(string -> bool) -> unit
(** Well-formed client: send [request], read to EOF, classify the
    response.  [request] must drive the server to close (end with QUIT,
    a complete HTTP exchange, ...). *)

val half_close :
  tally -> Chan.listener -> request:string -> is_rejection:(string -> bool) -> unit
(** Send [request], close the write side, then read responses to EOF. *)

val slow_loris :
  tally ->
  Chan.listener ->
  clock:Wedge_sim.Clock.t ->
  step_ns:int ->
  request:string ->
  is_rejection:(string -> bool) ->
  unit
(** Dribble [request] one byte per [step_ns] of simulated time. *)

val oversized : tally -> Chan.listener -> size:int -> is_rejection:(string -> bool) -> unit
(** One [size]-byte line; expects a too-large rejection from a capped
    parser. *)

val mid_header_stall :
  tally -> Chan.listener -> prefix:string -> is_rejection:(string -> bool) -> unit
(** Send [prefix] (a half-written header), then go silent and read until
    the server closes or cuts us.  Only hang detection reclaims the slot:
    the worker is blocked mid-read with bytes already consumed, and the
    run's [on_idle] hook ({!Wedge_sim.Reactor.idle}) must advance the
    clock to the guard's deadline.  Tallied as cut unless the server
    answered with a rejection. *)

val silent : tally -> Chan.listener -> unit
(** Connect and never write; holds a slot until cut. *)
