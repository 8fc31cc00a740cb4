(* Schedule exploration: run a scenario across N seeded schedules, and
   when one fails, shrink the recorded decision trace to a minimal
   failing schedule and print an exact repro command.

   Seeding: schedule [i] of a run seeded [S] uses

     s_0 = S          s_i = Rng.derive ~seed:S i   (i > 0)

   Schedule 0 using [S] itself means the repro command for a failure at
   index [i] — [--schedules 1 --seed s_i] — re-runs that exact schedule
   as schedule 0 of a fresh exploration, byte for byte. *)

module Fiber = Wedge_sim.Fiber
module Rng = Wedge_fault.Rng

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

let seed_for ~seed i = if i = 0 then seed else Rng.derive ~seed i

let trace_to_csv trace =
  String.concat "," (Array.to_list (Array.map string_of_int trace))

let policy_for kind s =
  match kind with
  | `Random -> Fiber.Random s
  | `Pct -> Fiber.Pct { seed = s; change_prob = 0.1 }

let policy_flag = function `Random -> "random" | `Pct -> "pct"

(* ------------------------------------------------------------------ *)
(* Shrinking: prefix truncation by binary search, then a zeroing pass.

   Replay semantics make both sound: an exhausted trace falls back to
   pool index 0, so a truncated prefix is the same schedule with a
   round-robin-at-0 tail, and zeroed entries are ordinary decisions. *)

let shrink ~budget ~fails trace =
  let trials = ref 0 in
  let fails t =
    if !trials >= budget then false
    else begin
      incr trials;
      fails t
    end
  in
  let best = ref trace in
  (* Shortest failing prefix.  Failure is not guaranteed monotone in the
     prefix length, so this is a heuristic search — but every candidate
     kept is replay-confirmed to fail, which is the property that
     matters. *)
  let lo = ref 0 and hi = ref (Array.length trace) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    let cand = Array.sub trace 0 mid in
    if fails cand then begin
      hi := mid;
      best := cand
    end
    else lo := mid
  done;
  (* Zero every decision that is not needed for the failure. *)
  let cur = Array.copy !best in
  for i = 0 to Array.length cur - 1 do
    if cur.(i) <> 0 then begin
      let old = cur.(i) in
      cur.(i) <- 0;
      if not (fails cur) then cur.(i) <- old
    end
  done;
  cur

(* ------------------------------------------------------------------ *)

let lookup scenario =
  match Scenarios.find scenario with
  | Some s -> s
  | None ->
      invalid_arg
        (Printf.sprintf "unknown scenario %S (have: %s)" scenario
           (String.concat ", " (Scenarios.names ())))

let replay ?(diff = false) ?(faults = true) ~scenario ~seed ~trace () =
  let s = lookup scenario in
  s.Scenarios.s_run ~policy:(Fiber.Replay trace) ~diff ~faults ~seed

(* Replays a failing trace may spend on shrinking. *)
let shrink_budget = 200

let explore ?(schedules = 100) ?(policy = `Random) ?(diff = false) ?(faults = true)
    ?(log = fun _ -> ()) ~scenario ~seed () =
  let s = lookup scenario in
  let digest = ref (Digest.string s.Scenarios.s_name) in
  let result = ref None in
  let i = ref 0 in
  while !result = None && !i < schedules do
    let si = seed_for ~seed !i in
    (match
       s.Scenarios.s_run ~policy:(policy_for policy si) ~diff ~faults ~seed:si
     with
    | summary ->
        digest := Digest.string (!digest ^ summary);
        if (!i + 1) mod 25 = 0 then
          log (Printf.sprintf "  %s: %d/%d schedules clean" s.Scenarios.s_name (!i + 1)
                 schedules)
    | exception e ->
        let msg = Printexc.to_string e in
        let decisions = Fiber.last_decisions () in
        log (Printf.sprintf "  %s: schedule %d (seed %d) FAILED: %s" s.Scenarios.s_name
               !i si msg);
        (* Confirm the recorded trace reproduces the failure under
           Replay, then shrink it.  Either way the seed-based repro
           below is exact: the policy is a pure function of [si]. *)
        let fails trace =
          match
            s.Scenarios.s_run ~policy:(Fiber.Replay trace) ~diff ~faults ~seed:si
          with
          | _ -> false
          | exception _ -> true
        in
        let confirmed = Array.length decisions > 0 && fails decisions in
        let shrunk =
          if confirmed then shrink ~budget:shrink_budget ~fails decisions
          else decisions
        in
        if confirmed then
          log (Printf.sprintf "  shrunk %d decisions -> %d" (Array.length decisions)
                 (Array.length shrunk));
        let repro =
          Printf.sprintf
            "wedge_cli check --scenario %s --schedules 1 --seed %d --policy %s%s%s"
            s.Scenarios.s_name si (policy_flag policy)
            (if diff then " --diff" else "")
            (if faults then "" else " --no-faults")
        in
        result :=
          Some
            (Failed
               {
                 x_scenario = s.Scenarios.s_name;
                 x_index = !i;
                 x_seed = si;
                 x_exn = msg;
                 x_decisions = decisions;
                 x_shrunk = shrunk;
                 x_confirmed = confirmed;
                 x_repro = repro;
               }));
    incr i
  done;
  match !result with
  | Some v -> v
  | None -> Passed { p_schedules = schedules; p_digest = Digest.to_hex !digest }

let verdict_to_string = function
  | Passed { p_schedules; p_digest } ->
      Printf.sprintf "PASSED %d schedules digest=%s" p_schedules p_digest
  | Failed f ->
      Printf.sprintf
        "FAILED scenario=%s schedule=%d seed=%d exn=%s\n\
         decisions=%d shrunk=%d confirmed=%b\n\
         replay-trace: %s\n\
         repro: %s"
        f.x_scenario f.x_index f.x_seed f.x_exn
        (Array.length f.x_decisions)
        (Array.length f.x_shrunk) f.x_confirmed
        (trace_to_csv f.x_shrunk)
        f.x_repro
