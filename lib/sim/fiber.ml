open Effect
open Effect.Deep
module Fault_plan = Wedge_fault.Fault_plan
module Rng = Wedge_fault.Rng

type _ Effect.t += Yield : unit Effect.t
type _ Effect.t += Spawn : (unit -> unit) -> unit Effect.t

type _ Effect.t += Park : unit Effect.t
(* Like [Yield], but the continuation is NOT re-enqueued: the fiber goes
   into the parked table and runs again only when [unpark] moves it back
   to the run queue.  Every blocking wait in the stack is built on this
   — a blocked fiber costs the scheduler nothing until the event it
   waits for actually happens. *)

exception Deadlock of string

exception Cancelled of string
(* Delivered inside a fiber at its next yield, stall step or park after
   [cancel] marked it.  A guard's heart cut uses this to tear down a
   hung compartment: [Engine.fault_reason] counts [Cancelled] among
   its built-in contained faults, so a cancelled worker dies like a
   crashed one — the listener and every other fiber keep running. *)

(* ------------------------------------------------------------------ *)
(* Scheduling policies                                                 *)

(* Round_robin keeps the FIFO queue.  The other policies schedule from
   an array-backed pool of runnable fibers and record, per step, the pool
   index they picked — the decision trace.  Feeding a trace back through
   [Replay] reproduces the run exactly, which is what schedule
   exploration uses to shrink a failing schedule. *)
type policy =
  | Round_robin
  | Random of int  (** uniformly random runnable fiber, from the seed *)
  | Pct of {
      seed : int;
      change_prob : float;
          (** probability, per scheduling step, that the currently
              highest-priority fiber is demoted below everyone else — the
              PCT "priority change point" *)
    }
  | Replay of int array
      (** replay recorded pool indices; out of range / exhausted entries
          fall back to index 0, so truncated traces still run *)

(* What a blocked wait does when the whole system stalls, in resolution
   order: at a stall the scheduler resolves the wait of the first class
   (lowest fiber id within it) and lets the world run again.  A wait
   with no class is resolved last, by raising [Deadlock] in it. *)
type stall = Shed_write | Force_drain | Forfeit_drain

let stall_rank = function
  | Some Shed_write -> 0
  | Some Force_drain -> 1
  | Some Forfeit_drain -> 2
  | None -> 3

(* ------------------------------------------------------------------ *)
(* Interest sets                                                       *)

(* One readiness edge source — a channel direction, a listener's accept
   queue, a drain's connection list.  It needs fiber ids but no clock:
   waiters park on it and [signal] puts every one of them back on the
   run queue in one batch.  Waits are level-triggered (a woken waiter
   re-checks its own [ready] and re-parks on a spurious wake), so
   producers signal coarsely and a wake can never be lost to a race. *)
type interest = {
  i_name : string;
  mutable i_dead : bool;
  mutable i_waiters : int list;  (* parked fiber ids, newest first *)
}

type verdict = Stalled | Deadlocked of string

(* The registry entry of one blocked fiber: what it waits for and how,
   and the verdict a stall delivered to it. *)
type wait = {
  w_what : string;
  w_on : source;
  w_ready : unit -> bool;
  w_stall : stall option;
  mutable w_verdict : verdict option;
}

(* What wakes a parked fiber: a signal on its interest set, the
   scheduler finding its [wait_until] condition true, or only an
   explicit [unpark] (a bare [park]). *)
and source = Set of interest | Poller | Bare

type task = {
  t_id : int;
  t_run : unit -> unit;
}

let dummy_task = { t_id = -1; t_run = (fun () -> ()) }

type sched = {
  policy : policy;
  runq : (unit -> unit) Queue.t;  (* Round_robin *)
  mutable pool : task array;  (* every other policy: [0, pool_n) *)
  mutable pool_n : int;
  mutable pollers : int list;  (* fibers parked in [wait_until], newest first *)
  rng : Rng.t;
  prio : (int, int) Hashtbl.t;  (* Pct: fiber id -> priority *)
  mutable demote_next : int;  (* strictly decreasing fresh minima *)
  mutable replay_pos : int;
  mutable decisions : int list;  (* newest first *)
  on_switch : (unit -> unit) option;
  on_idle : (unit -> bool) option;
      (* called at a stall; returns true when it moved the simulated
         world (advanced the clock to a timer and fired it) *)
  mutable cur : int;  (* id of the running fiber *)
  mutable next_id : int;
  blocked : (int, wait) Hashtbl.t;  (* the single registry of blocked fibers *)
  parked : (int, unit -> unit) Hashtbl.t;
      (* fiber id -> resume thunk; parked fibers are OFF the run queue
         entirely — [unpark] is the only way back *)
  cancelled : (int, string) Hashtbl.t;  (* fiber id -> cancel reason *)
  faults : Fault_plan.t option;
  clock : Clock.t option;  (* charged by induced stalls (site "fiber.stall") *)
}

let current : sched option ref = ref None
let in_scheduler () = !current <> None
let fiber_id () = match !current with Some s -> s.cur | None -> 0

(* Interest-set counters of the running scheduler, or of the last
   finished run (reset when a run starts). *)
type interest_stats = { signals : int; wakeups : int; parks : int; waiting : int }

let c_signals = ref 0
let c_wakeups = ref 0
let c_parks = ref 0
let c_waiting = ref 0

let interest_stats () =
  { signals = !c_signals; wakeups = !c_wakeups; parks = !c_parks; waiting = !c_waiting }

(* Deliver a pending cancellation exactly once: the flag is consumed on
   raise, so a supervisor restarting the cancelled worker does not see the
   retry die instantly from the same stale mark. *)
let check_cancel s =
  match Hashtbl.find_opt s.cancelled s.cur with
  | Some reason ->
      Hashtbl.remove s.cancelled s.cur;
      raise (Cancelled reason)
  | None -> ()

(* An induced hang (site "fiber.stall", kind [Delay ns]): burn [ns] of
   simulated time across several yields.  Each resume checks for
   cancellation first, so a watchdog that cuts the stalled fiber turns the
   hang into a contained [Cancelled] death mid-stall; an uncut stall is
   transient — the fiber resumes where it left off. *)
let stall s total =
  let chunk = max 1 (total / 8) in
  let rec go remaining =
    if remaining > 0 then begin
      check_cancel s;
      (match s.clock with Some c -> Clock.charge c (min chunk remaining) | None -> ());
      perform Yield;
      go (remaining - chunk)
    end
  in
  go total;
  check_cancel s

let yield () =
  match !current with
  | None -> ()
  | Some s ->
      check_cancel s;
      (match Fault_plan.roll_opt s.faults ~site:"fiber.stall" with
      | Some (Fault_plan.Delay ns) -> stall s ns
      | Some k -> Fault_plan.fail ~site:"fiber.stall" k
      | None -> ());
      perform Yield

let spawn f =
  match !current with
  | Some _ -> perform (Spawn f)
  | None -> invalid_arg "Fiber.spawn: not inside Fiber.run"

(* "never (blocked: fiber 0 awaiting never, fiber 2 awaiting channel data)" *)
let deadlock_message s what =
  let entries =
    Hashtbl.fold (fun id w acc -> (id, w.w_what) :: acc) s.blocked []
    |> List.sort compare
    |> List.map (fun (id, w) -> Printf.sprintf "fiber %d awaiting %s" id w)
  in
  Printf.sprintf "%s (blocked: %s)" what (String.concat ", " entries)

let no_scheduler what = Deadlock (Printf.sprintf "%s (no scheduler running)" what)

let check_verdict w =
  match w.w_verdict with Some (Deadlocked msg) -> raise (Deadlock msg) | _ -> ()

(* ------------------------------------------------------------------ *)
(* Run queue                                                           *)

let grow s =
  let n = Array.length s.pool in
  if s.pool_n = n then begin
    let bigger = Array.make (max 8 (2 * n)) dummy_task in
    Array.blit s.pool 0 bigger 0 n;
    s.pool <- bigger
  end

let pool_push s task =
  grow s;
  s.pool.(s.pool_n) <- task;
  s.pool_n <- s.pool_n + 1

let pool_take s i =
  let t = s.pool.(i) in
  s.pool_n <- s.pool_n - 1;
  s.pool.(i) <- s.pool.(s.pool_n);
  s.pool.(s.pool_n) <- dummy_task;
  t

let enqueue s ~id thunk =
  match s.policy with
  | Round_robin -> Queue.push thunk s.runq
  | _ -> pool_push s { t_id = id; t_run = thunk }

let runnable s = match s.policy with Round_robin -> Queue.length s.runq | _ -> s.pool_n

(* ------------------------------------------------------------------ *)
(* Park / unpark                                                       *)

let parked_ids () =
  match !current with
  | None -> []
  | Some s ->
      Hashtbl.fold (fun id _ acc -> id :: acc) s.parked [] |> List.sort compare

let unpark_in s id =
  match Hashtbl.find_opt s.parked id with
  | None -> ()
  | Some thunk ->
      Hashtbl.remove s.parked id;
      enqueue s ~id thunk

let unpark id = match !current with None -> () | Some s -> unpark_in s id

(* Park the calling fiber, registered as [w], until [unpark].
   Cancellation is delivered at both edges: a pending mark raises before
   the fiber ever leaves the queue, and a mark set while parked (the
   watchdog cutting a hung worker — [cancel] unparks its victim) raises
   at resume. *)
let suspend s w =
  check_cancel s;
  let id = s.cur in
  Hashtbl.replace s.blocked id w;
  (match perform Park with
  | () -> Hashtbl.remove s.blocked id
  | exception e ->
      Hashtbl.remove s.blocked id;
      raise e);
  check_verdict w;
  check_cancel s

let park ~what =
  match !current with
  | None -> raise (no_scheduler what)
  | Some s ->
      suspend s
        {
          w_what = what;
          w_on = Bare;
          w_ready = (fun () -> false);
          w_stall = None;
          w_verdict = None;
        }

(* A poller parks like any other wait; the scheduler checks its
   condition ([poll]) and unparks it once the condition holds.  The
   woken poller re-checks in its own fiber, level-triggered like
   [Interest.wait]: a fiber that ran before it may have made the
   condition false again. *)
let wait_until ?(what = "condition") cond =
  match !current with
  | None -> if not (cond ()) then raise (no_scheduler what)
  | Some s ->
      if not (cond ()) then begin
        let id = s.cur in
        let w =
          { w_what = what; w_on = Poller; w_ready = cond; w_stall = None; w_verdict = None }
        in
        let rec wait () =
          s.pollers <- id :: s.pollers;
          match suspend s w with
          | () -> if not (cond ()) then wait ()
          | exception e ->
              s.pollers <- List.filter (( <> ) id) s.pollers;
              raise e
        in
        wait ()
      end

(* Wake every parked poller whose condition holds, in fiber-id order.
   An id whose fiber is no longer parked as a poller (woken by [cancel]
   or a stall) leaves the list. *)
let poll s =
  match s.pollers with
  | [] -> ()
  | ids ->
      let ready = ref [] in
      s.pollers <-
        List.filter
          (fun id ->
            match Hashtbl.find_opt s.blocked id with
            | Some { w_on = Poller; w_ready; _ } when Hashtbl.mem s.parked id ->
                let holds = w_ready () in
                if holds then ready := id :: !ready;
                not holds
            | _ -> false)
          ids;
      List.iter (unpark_in s) (List.sort compare !ready)

let cancel ?(reason = "cancelled") id =
  match !current with
  | None -> ()
  | Some s ->
      if not (Hashtbl.mem s.cancelled id) then Hashtbl.replace s.cancelled id reason;
      (* A parked victim would otherwise never observe the mark: wake it
         so [park]'s resume edge delivers [Cancelled] promptly. *)
      unpark_in s id

(* ------------------------------------------------------------------ *)
(* Interest-set waits                                                  *)

module Interest = struct
  type t = interest

  let create ~name = { i_name = name; i_dead = false; i_waiters = [] }

  let unregister i id =
    if List.mem id i.i_waiters then begin
      i.i_waiters <- List.filter (fun x -> x <> id) i.i_waiters;
      decr c_waiting
    end

  (* Level-triggered: park until [ready], re-checking on every wake.  A
     dead set never blocks — the caller's own state (closed flag, EOF)
     carries the final answer.  A cancellation delivered while parked
     removes the registration before propagating: no ghost waiters.
     [false] means a stall resolved this wait instead. *)
  let await i stall ~what ~ready =
    if i.i_dead || ready () then true
    else
      match !current with
      | None -> raise (no_scheduler what)
      | Some s ->
          let id = s.cur in
          let w =
            { w_what = what; w_on = Set i; w_ready = ready; w_stall = stall; w_verdict = None }
          in
          let rec loop () =
            i.i_waiters <- id :: i.i_waiters;
            incr c_waiting;
            incr c_parks;
            (match suspend s w with
            | () -> unregister i id
            | exception e ->
                unregister i id;
                raise e);
            match w.w_verdict with
            | Some Stalled -> false
            | _ -> i.i_dead || ready () || loop ()
          in
          loop ()

  let wait i ~what ~ready = ignore (await i None ~what ~ready)
  let wait_or_stall i stall ~what ~ready = await i (Some stall) ~what ~ready

  (* One wake batch: every waiter back on the run queue, in fiber-id
     order so the wake order is a pure function of who waited. *)
  let signal i =
    match i.i_waiters with
    | [] -> ()
    | ws ->
        incr c_signals;
        i.i_waiters <- [];
        c_waiting := !c_waiting - List.length ws;
        List.iter
          (fun id ->
            incr c_wakeups;
            unpark id)
          (List.sort compare ws)

  let kill i =
    if not i.i_dead then begin
      i.i_dead <- true;
      signal i
    end
end

(* The interest-set audit over the scheduler's registry, for the
   invariant oracle:
   - a registered, still-parked waiter whose [ready] already holds is a
     lost wakeup (someone changed state without signalling);
   - a waiter registered on a dead set is a ghost ([kill] wakes
     everyone, and a dead set takes no registrations);
   - a parked fiber with no registration can never be woken by a signal
     (a registration leaked on some exception path, or a bare [park]).
   A registered waiter that is NOT parked is fine — that is the window
   between its wake and the fiber running its cleanup.  So is a parked
   poller, even one whose condition holds: the scheduler checks it at the
   end of the current pass. *)
let audit () =
  match !current with
  | None -> None
  | Some s ->
      let ghost id = function
        | { w_on = Set i; _ } when i.i_dead && List.mem id i.i_waiters ->
            Some (Printf.sprintf "interest: fiber %d waits on dead set %s" id i.i_name)
        | _ -> None
      in
      let parked id =
        match Hashtbl.find_opt s.blocked id with
        | Some { w_on = Poller; _ } -> None
        | Some ({ w_on = Set i; _ } as w) when List.mem id i.i_waiters -> (
            match ghost id w with
            | Some _ as g -> g
            | None when w.w_ready () ->
                Some
                  (Printf.sprintf "interest: lost wakeup — %s ready but fiber %d still parked"
                     i.i_name id)
            | None -> None)
        | _ -> Some (Printf.sprintf "interest: fiber %d parked with no registration" id)
      in
      match List.find_map parked (parked_ids ()) with
      | Some _ as p -> p
      | None -> Hashtbl.fold (fun id w acc -> if acc = None then ghost id w else acc) s.blocked None

(* ------------------------------------------------------------------ *)
(* Pool scheduling (Random / Pct / Replay)                             *)

(* Pct priorities are drawn at fiber creation; demotions assign fresh,
   strictly decreasing minima so the post-demotion order is total and
   deterministic. *)
let assign_prio s id =
  match s.policy with
  | Pct _ -> Hashtbl.replace s.prio id (1 + Rng.int s.rng 1_000_000)
  | _ -> ()

let pct_demote s id =
  Hashtbl.replace s.prio id s.demote_next;
  s.demote_next <- s.demote_next - 1

let choose s =
  let n = runnable s in
  let i =
    match s.policy with
    | Round_robin -> assert false
    | Random _ -> Rng.int s.rng n
    | Replay d ->
        let i =
          if s.replay_pos < Array.length d then abs d.(s.replay_pos) mod n else 0
        in
        s.replay_pos <- s.replay_pos + 1;
        i
    | Pct { change_prob; _ } ->
        let best = ref 0 in
        let best_p = ref min_int in
        for j = 0 to n - 1 do
          let p =
            match Hashtbl.find_opt s.prio s.pool.(j).t_id with
            | Some p -> p
            | None -> 0
          in
          if p > !best_p then begin
            best := j;
            best_p := p
          end
        done;
        if change_prob > 0.0 && Rng.float s.rng < change_prob then
          pct_demote s s.pool.(!best).t_id;
        !best
  in
  s.decisions <- i :: s.decisions;
  i

(* ------------------------------------------------------------------ *)
(* Stall resolution                                                    *)

(* Nothing can run and no timer can fire: resolve the blocked wait of the
   first stall class (lowest fiber id within it).  A stall-aware wait
   wakes to [Stalled]; anyone else is told [Deadlock], raised inside that
   fiber so a caller that expects a dead end can catch it. *)
let resolve s =
  let best = ref None in
  Hashtbl.iter
    (fun id w ->
      let key = (stall_rank w.w_stall, id) in
      match !best with
      | Some (k, _, _) when k <= key -> ()
      | _ -> best := Some (key, id, w))
    s.blocked;
  match !best with
  | None -> raise (Deadlock "nothing runnable, nothing blocked")
  | Some (_, id, w) ->
      w.w_verdict <-
        Some
          (match w.w_stall with
          | Some _ -> Stalled
          | None -> Deadlocked (deadlock_message s w.w_what));
      unpark_in s id

(* The decision trace of the most recently finished run (normal or
   exceptional) — Round_robin records nothing, pool policies record one
   index per scheduling step.  Survives the exception so a failing run can
   still be shrunk and replayed. *)
let last_run_decisions : int array ref = ref [||]
let last_decisions () = !last_run_decisions

let run ?faults ?clock ?(policy = Round_robin) ?on_switch ?on_idle main =
  if in_scheduler () then invalid_arg "Fiber.run: nested run";
  let seed = match policy with Random s -> s | Pct { seed; _ } -> seed | _ -> 0 in
  let s =
    {
      policy;
      runq = Queue.create ();
      pool = Array.make 8 dummy_task;
      pool_n = 0;
      pollers = [];
      rng = Rng.create seed;
      prio = Hashtbl.create 16;
      demote_next = 0;
      replay_pos = 0;
      decisions = [];
      on_switch;
      on_idle;
      cur = 0;
      next_id = 1;
      blocked = Hashtbl.create 8;
      parked = Hashtbl.create 8;
      cancelled = Hashtbl.create 8;
      faults;
      clock;
    }
  in
  current := Some s;
  c_signals := 0;
  c_wakeups := 0;
  c_parks := 0;
  c_waiting := 0;
  assign_prio s 0;
  let save_decisions () = last_run_decisions := Array.of_list (List.rev s.decisions) in
  let rec exec (f : unit -> unit) : unit =
    match_with f ()
      {
        retc = (fun () -> ());
        exnc =
          (fun e ->
            save_decisions ();
            current := None;
            raise e);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Yield ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    let id = s.cur in
                    enqueue s ~id (fun () ->
                        s.cur <- id;
                        continue k ()))
            | Spawn g ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    let id = s.next_id in
                    s.next_id <- s.next_id + 1;
                    assign_prio s id;
                    enqueue s ~id (fun () ->
                        s.cur <- id;
                        exec g);
                    continue k ())
            | Park ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    let id = s.cur in
                    Hashtbl.replace s.parked id (fun () ->
                        s.cur <- id;
                        continue k ()))
            | _ -> None);
      }
  in
  let finish () =
    save_decisions ();
    current := None
  in
  let switch () = match s.on_switch with Some f -> f () | None -> () in
  let step () =
    match s.policy with
    | Round_robin -> (Queue.pop s.runq) ()
    | _ -> (pool_take s (choose s)).t_run ()
  in
  (* Nothing is runnable, no poller is ready, and some fiber is parked.
     The hooks get one chance to fire due timers ([on_switch]), which
     may ready a poller; then [on_idle] may advance the simulated clock
     to the next armed timer and fire it (how a deadline cut reaches a
     system where every fiber waits on I/O).  If nothing moved the
     world, a blocked wait is resolved. *)
  let stalled () =
    switch ();
    if runnable s = 0 then poll s;
    if runnable s = 0 then
      let idled = match s.on_idle with Some f -> f () | None -> false in
      if (not idled) && runnable s = 0 then resolve s
  in
  (try
     exec main;
     (* [left] steps remain in the current pass over the run queue; the
        pollers are checked whenever a pass ends. *)
     let rec drain left =
       if left > 0 && runnable s > 0 then begin
         switch ();
         step ();
         drain (left - 1)
       end
       else begin
         poll s;
         if runnable s > 0 then drain (runnable s)
         else if Hashtbl.length s.parked > 0 then begin
           stalled ();
           drain 0
         end
       end
     in
     drain 0
   with e ->
     finish ();
     raise e);
  finish ()

module For_testing = struct
  let parked_ids = parked_ids
end
