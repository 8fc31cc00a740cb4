(* Hostile-client behaviors for exercising the admission layer.

   Each behavior is a complete client script run inside the caller's
   fiber (compose with [Fiber.spawn] for a flood) and records exactly one
   outcome in its tally, so a driver spawning N clients can assert the
   tally sums back to N — no connection may vanish unaccounted.

   Protocol details (request bytes, what a busy-rejection banner looks
   like) are parameters: the same behaviors drive HTTP, POP3 and SSH. *)

module Fiber = Wedge_sim.Fiber
module Clock = Wedge_sim.Clock
module Fault_plan = Wedge_fault.Fault_plan

type tally = {
  mutable completed : int;  (* full script ran; got a non-rejection answer *)
  mutable refused : int;  (* connect refused at the backlog *)
  mutable rejected : int;  (* admitted, then told to go away (503 / -ERR busy) *)
  mutable cut : int;  (* reset mid-script: deadline cut, drain force, fault *)
  mutable errors : int;  (* anything unexpected *)
}

let tally () = { completed = 0; refused = 0; rejected = 0; cut = 0; errors = 0 }
let total t = t.completed + t.refused + t.rejected + t.cut + t.errors

let read_until_eof ep =
  let buf = Buffer.create 64 in
  let rec go () =
    let b = Chan.read ep 4096 in
    if Bytes.length b = 0 then Buffer.contents buf
    else begin
      Buffer.add_bytes buf b;
      go ()
    end
  in
  go ()

let classify t ~is_rejection resp =
  if resp = "" then t.cut <- t.cut + 1
  else if is_rejection resp then t.rejected <- t.rejected + 1
  else t.completed <- t.completed + 1

(* Connect, run [f], and fold every way the connection can die into the
   tally.  A reset surfaces as [Injected] (abort/fault) or
   [Chan.Stalled] (stalled bounded write) — both count as cut. *)
let with_conn t l f =
  match Chan.connect l with
  | exception Chan.Refused _ ->
      t.refused <- t.refused + 1;
      Fiber.yield ()
  | exception Fault_plan.Injected _ ->
      t.cut <- t.cut + 1;
      Fiber.yield ()
  | exception _ -> t.errors <- t.errors + 1
  | ep ->
      (try f ep with
      | Fault_plan.Injected _ | Chan.Stalled _ -> t.cut <- t.cut + 1
      | _ -> t.errors <- t.errors + 1);
      (try Chan.close ep with _ -> ())

(* Well-formed client: send the whole request, read every response byte
   until the server closes.  The request must drive the server to close
   the session (e.g. end with QUIT). *)
let oneshot t l ~request ~is_rejection =
  with_conn t l (fun ep ->
      Chan.write_string ep request;
      classify t ~is_rejection (read_until_eof ep))

(* Half-close: full request, then shut our write side before reading —
   the server must serve the pipelined commands and treat the EOF as a
   clean goodbye, not an error. *)
let half_close t l ~request ~is_rejection =
  with_conn t l (fun ep ->
      Chan.write_string ep request;
      Chan.close ep;
      classify t ~is_rejection (read_until_eof ep))

(* Slow loris: dribble the request one byte at a time, charging the
   simulated clock between bytes.  Against a guard with a header
   deadline the connection is cut part-way (tallied as cut); without one
   the dribble eventually completes like a oneshot. *)
let slow_loris t l ~clock ~step_ns ~request ~is_rejection =
  with_conn t l (fun ep ->
      String.iter
        (fun ch ->
          Clock.charge clock step_ns;
          Chan.write_string ep (String.make 1 ch);
          Fiber.yield ())
        request;
      classify t ~is_rejection (read_until_eof ep))

(* Oversized request: a single line of [size] filler bytes.  A capped
   parser answers with its too-large rejection ([is_rejection] should
   match it) and closes; an uncapped one would buffer it all. *)
let oversized t l ~size ~is_rejection =
  with_conn t l (fun ep ->
      let blob = String.make size 'A' in
      (* chunked so the server's read loop interleaves with the writes *)
      let chunk = 4096 in
      let rec send off =
        if off < size then begin
          let n = min chunk (size - off) in
          Chan.write_string ep (String.sub blob off n);
          send (off + n)
        end
      in
      send 0;
      Chan.write_string ep "\r\n";
      classify t ~is_rejection (read_until_eof ep))

(* Mid-header staller: send a plausible prefix of the request, then go
   silent forever — a half-written header that never finishes.  Unlike
   slow-loris it makes no further progress at all, so only hang detection
   (the guard's hang or header deadline) can reclaim the slot: the worker
   is blocked mid-read with bytes already consumed.  The staller parks in
   its read until the cut; the reactor's idle hook sleeps the clock to
   the deadline meanwhile.  Always tallied as cut (the session never
   completed) unless the server improbably answers the half request. *)
let mid_header_stall t l ~prefix ~is_rejection =
  with_conn t l (fun ep ->
      Chan.write_string ep prefix;
      let resp = read_until_eof ep in
      if resp <> "" && is_rejection resp then t.rejected <- t.rejected + 1
      else t.cut <- t.cut + 1)

(* Connect and say nothing: holds a slot until the guard's stall/deadline
   detection cuts it loose.  Tallied as cut when reset, completed if the
   server closes cleanly first. *)
let silent t l =
  with_conn t l (fun ep ->
      (* The server may greet before cutting us; either way the session
         never progressed, so the outcome is always a cut. *)
      ignore (read_until_eof ep);
      t.cut <- t.cut + 1)
