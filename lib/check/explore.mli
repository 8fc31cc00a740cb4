(** Schedule exploration with shrinking.

    [explore ~scenario ~seed ()] runs the named {!Scenarios} scenario
    across [schedules] independently seeded schedules (schedule 0 uses
    [seed] itself, schedule [i>0] uses [Wedge_fault.Rng.derive ~seed i]).
    Every run is deterministic in its per-schedule seed, so the whole
    exploration is replayable and a clean sweep yields a stable digest.

    On the first failure the recorded scheduler decision trace is
    replay-confirmed, shrunk (shortest failing prefix, then a zeroing
    pass, at most [shrink_budget] replays), and packaged with an exact
    copy-paste repro command. *)

type verdict =
  | Passed of { p_schedules : int; p_digest : string }
  | Failed of {
      x_scenario : string;
      x_index : int;  (** which schedule (0-based) failed *)
      x_seed : int;  (** the per-schedule seed that failed *)
      x_exn : string;
      x_decisions : int array;  (** full recorded decision trace *)
      x_shrunk : int array;  (** minimal failing trace (replay-confirmed) *)
      x_confirmed : bool;  (** replaying [x_decisions] reproduced the failure *)
      x_repro : string;  (** copy-paste repro command *)
    }

val explore :
  ?schedules:int ->
  ?policy:[ `Random | `Pct ] ->
  ?diff:bool ->
  ?faults:bool ->
  ?shrink_budget:int ->
  ?log:(string -> unit) ->
  scenario:string ->
  seed:int ->
  unit ->
  verdict
(** @raise Invalid_argument on an unknown scenario name. *)

val replay :
  ?diff:bool ->
  ?faults:bool ->
  scenario:string ->
  seed:int ->
  trace:int array ->
  unit ->
  string
(** Run one schedule under [Fiber.Replay trace] (e.g. a shrunk trace);
    returns the scenario summary, or raises whatever the bug raises. *)

val verdict_to_string : verdict -> string
