(* Restart supervision for compartments (the recovery half of §4.1's
   containment story): a compartment crash is already contained by the
   engine; this module decides what happens next.  One flat policy:
   retry a crashed compartment with exponential backoff charged to the
   simulated clock, and give up into a [Gave_up] outcome the caller
   turns into a degraded response (HTTP 500, POP3 -ERR, SSH
   disconnect). *)

module Process = Wedge_kernel.Process

(* The backoff charged after faulted attempt [attempt], in simulated ns:
   100 doubled [attempt - 1] times, saturating at 1 s.  Doubling stops
   at the cap, so no attempt count overflows it: a plain
   [100 * (1 lsl (attempt - 1))] goes negative past a 62-step shift,
   which would *credit* simulated time back to the clock. *)
let max_backoff_ns = 1_000_000_000

let backoff ~attempt =
  let rec go k v =
    if k <= 0 || v >= max_backoff_ns then min v max_backoff_ns else go (k - 1) (2 * v)
  in
  go (attempt - 1) 100

type outcome =
  | Done of { value : int; attempts : int }
  | Gave_up of { attempts : int; last_fault : string }

(* One attempt, with every contained fault folded into [Error reason] —
   both a fault during creation itself (an injected ["pool.stamp"]
   fault while stamping the image) and a crash inside the compartment.
   Neither may ever propagate past the supervisor. *)
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
let supervise ~max_restarts ?(on_restart = ignore) ctx run =
  let rec go n =
    match run_attempt ctx run with
    | Ok value -> Done { value; attempts = n }
    | Error reason ->
        if n <= max_restarts then begin
          Engine.stat ctx "supervisor.restart";
          Engine.trace_instant ctx "supervisor.restart";
          Engine.charge_app ctx (backoff ~attempt:n);
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
