(* Restart supervision for compartments (the recovery half of §4.1's
   containment story): a compartment crash is already contained by the
   engine; this module decides what happens next.  One flat policy:
   retry a crashed compartment with exponential backoff charged to the
   simulated clock, and give up into a [Gave_up] outcome the caller
   turns into a degraded response (HTTP 500, POP3 -ERR, SSH
   disconnect). *)

module Process = Wedge_kernel.Process

type policy = {
  max_restarts : int;  (* retries after the first attempt *)
  backoff_ns : int;  (* charged before retry k as backoff_ns * 2^(k-1) *)
  max_backoff_ns : int;  (* cap on any single backoff charge *)
}

let default_max_backoff_ns = 1_000_000_000

let default_policy =
  { max_restarts = 0; backoff_ns = 100; max_backoff_ns = default_max_backoff_ns }

let policy ?(max_restarts = 0) ?(backoff_ns = 100)
    ?(max_backoff_ns = default_max_backoff_ns) () =
  { max_restarts; backoff_ns; max_backoff_ns }

(* Overflow-safe exponential backoff: double attempt-1 times, saturating
   at the cap.  The former [backoff_ns * (1 lsl (attempt - 1))] went
   negative past a 62-step shift (and far earlier for large [backoff_ns]),
   which *credited* simulated time back to the clock. *)
let backoff_for p ~attempt =
  if p.backoff_ns <= 0 then 0
  else begin
    let cap = max p.max_backoff_ns 0 in
    let rec go k v =
      if k <= 0 || v >= cap then min v cap
      else go (k - 1) (if v > max_int / 2 then max_int else v * 2)
    in
    go (attempt - 1) p.backoff_ns
  end

type outcome =
  | Done of { value : int; attempts : int }
  | Gave_up of { attempts : int; last_fault : string }

(* One attempt, with every contained fault folded into [Error reason] —
   both a fault during creation itself (resource quota hit while
   duplicating granted descriptors, frame exhaustion mapping the image)
   and a crash inside the compartment.  Neither may ever propagate past
   the supervisor. *)
let run_attempt ctx run =
  match run () with
  | handle -> (
      match Engine.handle_status handle with
      | Process.Faulted reason -> Error reason
      | _ -> Ok (Engine.sthread_join ctx handle))
  | exception e when Engine.fault_reason e <> None ->
      Engine.stat ctx "fault.compartment";
      Error ("create: " ^ Option.get (Engine.fault_reason e))

(* [on_restart] fires after the backoff charge, just before the new
   attempt spawns: a caller re-arms there a connection heart left hung
   by the cut that killed the previous attempt. *)
let supervise ?(policy = default_policy) ?(on_restart = ignore) ctx run =
  let rec go n =
    match run_attempt ctx run with
    | Ok value -> Done { value; attempts = n }
    | Error reason ->
        if n <= policy.max_restarts then begin
          Engine.stat ctx "supervisor.restart";
          Engine.trace_instant ctx "supervisor.restart";
          (* Exponential backoff, charged to the simulated clock: 1x, 2x,
             4x ... of [backoff_ns], saturating at [max_backoff_ns]. *)
          Engine.charge_app ctx (backoff_for policy ~attempt:n);
          on_restart ();
          go (n + 1)
        end
        else begin
          Engine.stat ctx "supervisor.gave_up";
          Engine.trace_instant ctx "supervisor.gave_up";
          Gave_up { attempts = n; last_fault = reason }
        end
  in
  go 1
