(* The attack tests' sweep over the kernel entries of a compromised
   compartment ({!Wedge_core.Wedge.takeover}).  [entries run] calls
   [run at] for at = 1, 2, ... — each call a fresh run with the payload
   armed at that entry, answering whether it fired — until a payload
   does not fire because its target made fewer entries, and returns how
   many runs it fired in.  A blocked claim checked this way holds at
   every point where an attacker could gain control of the target, not
   at one chosen point. *)
let entries run =
  let rec go at =
    if at > 1_000 then failwith "Sweep.entries: the target never stops entering the kernel"
    else if run at then go (at + 1)
    else at - 1
  in
  go 1

(* Arm [payload] at the [at]-th kernel entry of [where] in [app]; [ran]
   records that it fired, so a test whose payload never runs fails
   instead of passing vacuously. *)
let arm ~where ~at ran payload app =
  Wedge_core.Wedge.takeover app ~where ~at (fun ctx ->
      ran := true;
      payload ctx)
