(* Supervision for compartments (the last step of §4.1's containment
   story): a compartment crash is already contained by the engine; this
   module folds every way one attempt can fail into [Error reason], which
   the caller turns into a degraded response (HTTP 500, POP3 -ERR, SSH
   disconnect).  Nothing is retried: a fresh compartment would meet a
   client in the middle of the session its predecessor left behind. *)

module Process = Wedge_kernel.Process

(* Both a fault during creation itself (an injected ["pool.stamp"] fault
   while stamping the image) and a crash inside the compartment end in
   [Error reason]; neither may ever propagate past the supervisor. *)
let supervise ctx run =
  let result =
    match run () with
    | handle -> (
        match Engine.handle_status handle with
        | Process.Faulted reason -> Error reason
        | _ -> Ok (Engine.sthread_join ctx handle))
    | exception e when Engine.fault_reason e <> None ->
        Engine.stat ctx "fault.compartment";
        Error ("create: " ^ Option.get (Engine.fault_reason e))
  in
  if Result.is_error result then begin
    Engine.stat ctx "supervisor.gave_up";
    Engine.trace_instant ctx "supervisor.gave_up"
  end;
  result
