module Fiber = Wedge_sim.Fiber
module Clock = Wedge_sim.Clock
module Cost_model = Wedge_sim.Cost_model
module Trace = Wedge_sim.Trace
module Metrics = Wedge_sim.Metrics
module Interest = Wedge_sim.Fiber.Interest
module Fd_table = Wedge_kernel.Fd_table
module Fault_plan = Wedge_fault.Fault_plan

exception Refused of string
exception Stalled of string

(* A refused connection and a stalled bounded write are environmental
   conditions, not programming errors: a supervised compartment that
   reconnects during/after a drain, or writes to a peer that never
   reads, must die contained, exactly like a reset.
   Register both with the engine's contained-fault class at link
   time. *)
let () =
  Wedge_core.Engine.register_fault_class (function
    | Refused msg | Stalled msg -> Some msg
    | _ -> None)

(* One direction of flow: a byte FIFO with a close flag.  [reset] marks a
   close forced by fault injection: readers still see EOF, but writers get
   a catchable [Fault_plan.Injected] (the EPIPE analogue) instead of the
   programming-error [Invalid_argument]. *)
type dir = {
  mutable data : Bytes.t;
  mutable rpos : int;
  mutable wpos : int;
  mutable closed : bool;
  mutable reset : bool;
  ready : Interest.t;
      (* this direction's interest set: its reader parks on it for
         data/EOF, its writer for drained backpressure space *)
}

let dir_create () =
  {
    data = Bytes.create 256;
    rpos = 0;
    wpos = 0;
    closed = false;
    reset = false;
    ready = Interest.create ~name:"chan";
  }
let dir_available d = d.wpos - d.rpos

(* One readiness edge: data arrived, space drained, or the direction
   died.  Level-triggered waiters re-check their own condition, so
   signalling coarsely (every push, every pop) is correct; with no
   waiter it is one match. *)
let dir_signal d = Interest.signal d.ready

(* Append [b]'s [n] bytes from [off].  A full ring grows to what it must
   hold, at least doubling: a reply the reader drains before the next one
   reuses the ring, so each direction grows to fit the longest burst it
   buffers and no further. *)
let dir_push d b off n =
  let cap = Bytes.length d.data in
  if d.wpos + n > cap then begin
    let live = dir_available d in
    let fresh = Bytes.create (max (cap * 2) (live + n)) in
    Bytes.blit d.data d.rpos fresh 0 live;
    d.data <- fresh;
    d.rpos <- 0;
    d.wpos <- live
  end;
  Bytes.blit b off d.data d.wpos n;
  d.wpos <- d.wpos + n;
  dir_signal d

let dir_pop d n =
  let take = min n (dir_available d) in
  let b = Bytes.sub d.data d.rpos take in
  d.rpos <- d.rpos + take;
  if d.rpos = d.wpos then begin
    d.rpos <- 0;
    d.wpos <- 0
  end;
  if take > 0 then dir_signal d;
  b

type ep = {
  rx : dir;
  tx : dir;
  clock : Clock.t option;
  costs : Cost_model.t;
  faults : Fault_plan.t option;
  trace : Trace.t;
  capacity : int option;
      (* high watermark on in-flight bytes per direction: a writer blocks
         on the fiber scheduler above it and resumes at half (the low
         watermark), so no peer can balloon a channel buffer without
         bound *)
}

(* Channel events are attributed to pid 0 — the wire itself, not any
   compartment; the tid (scheduler fiber) tells connections apart. *)
let net_pid = 0

let pair ?clock ?(costs = Cost_model.default) ?faults ?(trace = Trace.null)
    ?capacity () =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Chan.pair: capacity <= 0"
  | _ -> ());
  let ab = dir_create () and ba = dir_create () in
  ( { rx = ba; tx = ab; clock; costs; faults; trace; capacity },
    { rx = ab; tx = ba; clock; costs; faults; trace; capacity } )

let charge_rtt ep half =
  match ep.clock with
  | Some c -> Clock.charge c (if half then ep.costs.Cost_model.net_rtt / 2 else ep.costs.Cost_model.net_rtt)
  | None -> ()

(* Tear one direction down as a fault: readers of it see EOF, writers get
   [Injected].  Pending bytes are lost.  The interest set dies with the
   direction: every parked waiter wakes (to EOF or the write error) and
   no new registration can land on the carcass. *)
let dir_kill d =
  d.rpos <- 0;
  d.wpos <- 0;
  d.closed <- true;
  d.reset <- true;
  Interest.kill d.ready

(* Close as reset but let already-buffered bytes drain (truncation). *)
let dir_kill_keep_data d =
  d.closed <- true;
  d.reset <- true;
  dir_signal d

(* Connection reset: both directions die so no fiber can block on the
   carcass (silently dropped bytes would stall the peer forever and take
   the whole cooperative scheduler down as a deadlock). *)
let kill ep =
  dir_kill ep.rx;
  dir_kill ep.tx

let charge_delay ep ns =
  match ep.clock with Some c -> Clock.charge c ns | None -> ()

(* Park until this endpoint is readable: zero scheduler steps while
   blocked. *)
let wait_rx ?(bytes = 1) ep =
  let bytes = max 1 bytes in
  Interest.wait ep.rx.ready ~what:"channel data" ~ready:(fun () ->
      dir_available ep.rx >= bytes || ep.rx.closed)

let read ep n =
  if n <= 0 then invalid_arg "Chan.read: n <= 0";
  (match Fault_plan.roll_opt ep.faults ~site:"chan.read" with
  | Some Fault_plan.Reset ->
      kill ep
  | Some (Fault_plan.Drop | Fault_plan.Enomem) ->
      (* incoming bytes lost; the read side sees EOF from now on *)
      dir_kill ep.rx
  | Some Fault_plan.Truncate ->
      (* deliver at most one pending byte, then the direction dies *)
      let keep = min 1 (dir_available ep.rx) in
      ep.rx.wpos <- ep.rx.rpos + keep;
      ep.rx.closed <- true;
      ep.rx.reset <- true;
      dir_signal ep.rx
  | Some (Fault_plan.Delay ns) -> charge_delay ep ns
  | Some (Fault_plan.Crash as k) -> Fault_plan.fail ~site:"chan.read" k
  | None -> ());
  let blocked = dir_available ep.rx = 0 && not ep.rx.closed in
  wait_rx ep;
  if blocked then charge_rtt ep true;
  let b = dir_pop ep.rx n in
  Trace.count ep.trace ~name:"chan.read" ~pid:net_pid ~value:(Bytes.length b);
  b

let read_exact ep n =
  if n < 0 then invalid_arg "Chan.read_exact: n < 0";
  if n = 0 then Some Bytes.empty
  else begin
    (* One preallocated buffer filled in place — the per-call Buffer of
       the old implementation copied every chunk twice.  A faulted
       direction can deliver empty chunks without EOF; two consecutive
       zero-progress reads terminate the loop instead of spinning. *)
    let buf = Bytes.create n in
    let rec go filled stalls =
      if filled >= n then Some buf
      else
        let chunk = read ep (n - filled) in
        let len = Bytes.length chunk in
        if len = 0 then
          if stalls >= 1 || (dir_available ep.rx = 0 && ep.rx.closed) then None
          else go filled (stalls + 1)
        else begin
          Bytes.blit chunk 0 buf filled len;
          go (filled + len) 0
        end
    in
    go 0 0
  end

(* Writer-side backpressure: above the high watermark, park until the
   reader drains to the low watermark.  If the whole system stalls while
   we wait (the peer will never read), this write is the first wait the
   scheduler resolves: tear the direction down and raise a contained
   [Stalled] — a stalled bounded write must become a compartment fault,
   never a scheduler deadlock. *)
let wait_for_space ep cap =
  let low = max 1 (cap / 2) in
  if
    not
      (Interest.wait_or_stall ep.tx.ready Fiber.Shed_write ~what:"channel space"
         ~ready:(fun () -> dir_available ep.tx <= low || ep.tx.closed))
  then begin
    let stuck = dir_available ep.tx in
    dir_kill ep.tx;
    raise
      (Stalled
         (Printf.sprintf
            "chan.write: bounded channel stalled (%d bytes in flight, peer not reading)"
            stuck))
  end

let write_sub ep b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg "Chan.write_sub";
  if ep.tx.closed then
    if ep.tx.reset then
      raise (Fault_plan.Injected "chan.write: peer reset (injected)")
    else invalid_arg "Chan.write: endpoint closed";
  (match ep.capacity with
  | Some cap when dir_available ep.tx >= cap -> wait_for_space ep cap
  | _ -> ());
  (* The block may have ended because the direction died under us. *)
  if ep.tx.closed then
    raise (Fault_plan.Injected "chan.write: peer reset while blocked on backpressure");
  (match Fault_plan.roll_opt ep.faults ~site:"chan.write" with
  | Some (Fault_plan.Reset | Fault_plan.Crash as k) ->
      kill ep;
      Fault_plan.fail ~site:"chan.write" k
  | Some (Fault_plan.Drop | Fault_plan.Enomem) ->
      (* the bytes vanish in flight and the direction dies; the writer
         only finds out on its next write (like a TCP send after FIN) *)
      dir_kill ep.tx
  | Some Fault_plan.Truncate ->
      if len > 0 then dir_push ep.tx b off 1;
      dir_kill_keep_data ep.tx
  | Some (Fault_plan.Delay ns) ->
      charge_delay ep ns;
      dir_push ep.tx b off len
  | None -> dir_push ep.tx b off len);
  Trace.count ep.trace ~name:"chan.write" ~pid:net_pid ~value:len;
  Fiber.yield ()

let write ep b = write_sub ep b 0 (Bytes.length b)
let write_string ep s = write ep (Bytes.of_string s)

let close ep =
  ep.tx.closed <- true;
  (* The peer's parked reader must see its EOF. *)
  dir_signal ep.tx

(* Forced teardown (RST): both directions die immediately.  Readers see
   EOF, writers get a contained [Injected] — what the admission layer
   uses to cut a connection past its deadline or at drain force-close. *)
let abort ep =
  Trace.instant ep.trace ~name:"chan.abort" ~pid:net_pid;
  kill ep

let bytes_in_flight ep = dir_available ep.rx
let to_endpoint ep =
  {
    Fd_table.ep_read = (fun n -> read ep n);
    ep_write = (fun b off len -> write_sub ep b off len);
    (* A raw channel blocks inside [read], after the trap, and charges the
       half round trip a blocked read costs; the guard's endpoint is the
       one that parks before the trap. *)
    ep_wait = ignore;
  }

(* ------------------------------------------------------------------ *)

type listener = {
  queue : ep Queue.t;
  mutable down : bool;
  backlog : int;
  mutable refused : int;
  lclock : Clock.t option;
  lcosts : Cost_model.t;
  lfaults : Fault_plan.t option;
  ltrace : Trace.t;
  lcapacity : int option;
  l_ready : Interest.t;
      (* accept-queue interest set: the acceptor parks on it and a SYN
         burst wakes it once to drain the whole backlog *)
}

let default_backlog = 128

let listener ?clock ?(costs = Cost_model.default) ?faults
    ?(trace = Trace.null) ?(backlog = default_backlog) ?capacity () =
  if backlog <= 0 then invalid_arg "Chan.listener: backlog <= 0";
  {
    queue = Queue.create ();
    down = false;
    backlog;
    refused = 0;
    lclock = clock;
    lcosts = costs;
    lfaults = faults;
    ltrace = trace;
    lcapacity = capacity;
    l_ready = Interest.create ~name:"chan.listener";
  }

let refuse l msg =
  l.refused <- l.refused + 1;
  Trace.instant l.ltrace ~name:"chan.refused" ~pid:net_pid;
  raise (Refused msg)

let connect l =
  (* A down listener refuses like a full backlog: connecting to a server
     that went away is an environmental condition the engine contains
     (see the fault-class registration above), never [Invalid_argument]
     — which would escape containment and kill the reconnecting
     compartment's whole supervisor chain as a programming error. *)
  if l.down then refuse l "Chan.connect: listener is down";
  (match Fault_plan.roll_opt l.lfaults ~site:"chan.connect" with
  | Some k -> Fault_plan.fail ~site:"chan.connect" k
  | None -> ());
  (* A full accept queue refuses the SYN outright — overflow connects
     must surface to the connecting fiber as a distinct error, never
     pile up unboundedly behind a server that will not accept them. *)
  if Queue.length l.queue >= l.backlog then
    refuse l
      (Printf.sprintf "Chan.connect: backlog full (%d pending)"
         (Queue.length l.queue));
  let client, server =
    match l.lclock with
    | Some c ->
        pair ~clock:c ~costs:l.lcosts ?faults:l.lfaults ~trace:l.ltrace
          ?capacity:l.lcapacity ()
    | None ->
        pair ~costs:l.lcosts ?faults:l.lfaults ~trace:l.ltrace
          ?capacity:l.lcapacity ()
  in
  Queue.push server l.queue;
  Interest.signal l.l_ready;
  Trace.instant l.ltrace ~name:"chan.connect" ~pid:net_pid;
  client

let accept l =
  Interest.wait l.l_ready ~what:"incoming connection" ~ready:(fun () ->
      not (Queue.is_empty l.queue) || l.down);
  let r = Queue.take_opt l.queue in
  if Option.is_some r then Trace.instant l.ltrace ~name:"chan.accept" ~pid:net_pid;
  r

let shutdown l =
  l.down <- true;
  (* Connections already queued but never to be accepted are reset, so
     their clients see EOF instead of waiting forever. *)
  Queue.iter kill l.queue;
  Queue.clear l.queue;
  (* Parked acceptors wake to the [down] flag; no new registrations. *)
  Interest.kill l.l_ready

let register_metrics m l =
  Metrics.register m ~name:"chan.listener" ~kind:Metrics.Counter (fun () ->
      [ ("chan.refused", l.refused) ]);
  Metrics.register m ~name:"chan.listener.gauges" (fun () ->
      [ ("chan.pending", Queue.length l.queue) ])
