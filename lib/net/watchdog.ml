(* Hang detection for compartments: heartbeats with deadlines on the
   simulated clock.

   A crash is contained by the engine the instant it happens; a *hang*
   (stalled fiber, silent channel peer, livelocked callgate) is invisible
   until something notices the missing heartbeat.  Each watched unit of
   work arms a [heart]; progress beats it; a heart found overdue — by
   the timer its guard arms at [next_deadline], or by [sweep] — is cut:
   the watched endpoints are
   aborted ([Chan.abort]: reads become EOF, writes a contained fault) and
   the armed fiber is cancelled ([Fiber.cancel]), so the hung compartment
   dies as a contained [Fiber.Cancelled] fault the supervisor above can
   restart.  [Hang] (raised by a beat arriving after the cut) is
   registered as a contained engine fault class at link time, like
   [Chan.Refused]. *)

module Clock = Wedge_sim.Clock
module Fiber = Wedge_sim.Fiber
module Trace = Wedge_sim.Trace
module Metrics = Wedge_sim.Metrics

exception Hang of string

let () =
  Wedge_core.Engine.register_fault_class (function
    | Hang msg -> Some msg
    | _ -> None)

type t = {
  clock : Clock.t;
  deadline_ns : int;  (* default heart deadline *)
  trace : Trace.t;
  mutable hearts : heart list;
  mutable cuts : int;
  mutable beats : int;
}

and heart = {
  w : t;
  h_name : string;
  h_deadline_ns : int;
  h_fiber : int;  (* cancelled on cut; captured at arm time *)
  mutable h_eps : Chan.ep list;
  mutable h_last_beat : int;
  mutable h_state : [ `Alive | `Hung | `Disarmed ];
}

(* Watchdog events carry pid 0, like the guard's: detection happens in
   the scheduler/monitor, outside any compartment. *)
let watchdog_pid = 0

let create ?(trace = Trace.null) ~deadline_ns clock =
  if deadline_ns <= 0 then invalid_arg "Watchdog.create: deadline_ns <= 0";
  { clock; deadline_ns; trace; hearts = []; cuts = 0; beats = 0 }

let arm ?name:(h_name = "compartment") ?deadline_ns w =
  let h =
    {
      w;
      h_name;
      h_deadline_ns = Option.value deadline_ns ~default:w.deadline_ns;
      h_fiber = Fiber.fiber_id ();
      h_eps = [];
      h_last_beat = Clock.now w.clock;
      h_state = `Alive;
    }
  in
  w.hearts <- h :: w.hearts;
  h

let watch h ep = h.h_eps <- ep :: h.h_eps

let hung h = h.h_state = `Hung

let beat h =
  match h.h_state with
  | `Hung ->
      (* The worker woke up after its connection was already cut: it must
         die contained, charged as a hang, not resume half-torn-down. *)
      raise
        (Hang
           (Printf.sprintf "watchdog: %s beat after cut (deadline %d ns)" h.h_name
              h.h_deadline_ns))
  | `Disarmed -> ()
  | `Alive ->
      h.h_last_beat <- Clock.now h.w.clock;
      h.w.beats <- h.w.beats + 1

let disarm h =
  if h.h_state <> `Hung then h.h_state <- `Disarmed;
  h.w.hearts <- List.filter (fun h' -> h' != h) h.w.hearts

let overdue h =
  h.h_state = `Alive && Clock.now h.w.clock - h.h_last_beat > h.h_deadline_ns

let next_deadline h =
  if h.h_state = `Alive then Some (h.h_last_beat + h.h_deadline_ns + 1) else None

let cut h =
  if h.h_state = `Alive then begin
    h.h_state <- `Hung;
    h.w.cuts <- h.w.cuts + 1;
    Trace.instant h.w.trace ~name:"watchdog.cut" ~pid:watchdog_pid;
    List.iter (fun ep -> try Chan.abort ep with _ -> ()) h.h_eps;
    Fiber.cancel
      ~reason:
        (Printf.sprintf "watchdog: %s hung (deadline %d ns)" h.h_name h.h_deadline_ns)
      h.h_fiber
  end

let sweep w = List.iter (fun h -> if overdue h then cut h) w.hearts

let cuts w = w.cuts
let beats w = w.beats
let armed w = List.length (List.filter (fun h -> h.h_state = `Alive) w.hearts)

(* Invariant for the oracle: no live heart may be overdue once its timer
   had its tick (the reactor hook ticks before the oracle's checks). *)
let self_check ?(slack_ns = 0) w =
  let now = Clock.now w.clock in
  match
    List.find_opt
      (fun h ->
        h.h_state = `Alive && now - h.h_last_beat > h.h_deadline_ns + slack_ns)
      w.hearts
  with
  | Some h ->
      Some
        (Printf.sprintf "watchdog: %s overdue %d ns past its %d ns deadline, uncut"
           h.h_name
           (now - h.h_last_beat - h.h_deadline_ns)
           h.h_deadline_ns)
  | None -> None

let register_metrics ?(name = "watchdog") m w =
  Metrics.register m ~name ~kind:Metrics.Counter (fun () ->
      [ ("watchdog.cuts", w.cuts); ("watchdog.beats", w.beats) ]);
  Metrics.register m ~name:(name ^ ".gauges") (fun () ->
      [ ("watchdog.armed", armed w) ])
