(* The reactor: everything in the blocking model that needs a clock.

   Fibers park on interest sets ([Fiber.Interest]), which need fiber ids
   but no clock.  What does need one lives here: deadlines as entries on
   a timer wheel keyed by the simulated clock.  [hook] — wired into the
   scheduler as its [on_switch] hook — fires every timer that has come
   due since the clock last moved.  When the system stalls, the
   scheduler's [on_idle] hook calls [idle], which advances the clock
   straight to the next armed timer — exactly how a real event loop
   sleeps in epoll_wait until its earliest timeout.

   Everything is deterministic: timers fire in (deadline, creation)
   order, and the counters below are pure functions of the schedule. *)

type timer = {
  tm_id : int;
  tm_at : int;  (* absolute simulated ns *)
  mutable tm_fire : (unit -> unit) option;  (* None = cancelled or fired *)
}

type t = {
  r_clock : Clock.t;
  mutable next_timer : int;
  mutable timers : timer list;  (* sorted by (tm_at, tm_id) *)
  mutable armed : int;  (* timers in the list still holding a callback *)
  mutable last_now : int;  (* clock value at the last timer sweep *)
  mutable timers_dirty : bool;  (* a timer was armed since that sweep *)
  mutable c_timer_fires : int;
  mutable c_idle_advances : int;  (* clock jumps to the next timer *)
}

let create ~clock () =
  {
    r_clock = clock;
    next_timer = 0;
    timers = [];
    armed = 0;
    last_now = -1;
    timers_dirty = false;
    c_timer_fires = 0;
    c_idle_advances = 0;
  }

let clock r = r.r_clock

(* ------------------------------------------------------------------ *)
(* Timer wheel (simulated clock)                                       *)

type timer_id = timer

let insert_timer r tm =
  r.timers_dirty <- true;
  r.armed <- r.armed + 1;
  let rec ins = function
    | [] -> [ tm ]
    | t :: rest as l ->
        if (tm.tm_at, tm.tm_id) < (t.tm_at, t.tm_id) then tm :: l
        else t :: ins rest
  in
  r.timers <- ins r.timers

let at r ~ns fire =
  let id = r.next_timer in
  r.next_timer <- id + 1;
  let tm = { tm_id = id; tm_at = ns; tm_fire = Some fire } in
  insert_timer r tm;
  tm

(* Lazy removal: the entry stays on the wheel as a no-op until its
   instant passes, so a cancel is O(1). *)
let cancel_timer r tm =
  match tm.tm_fire with
  | Some _ ->
      tm.tm_fire <- None;
      r.armed <- r.armed - 1
  | None -> ()

(* Fire everything due.  The sweep is gated on the clock having moved
   (or a timer having been armed) since the last one, so the hook's cost
   on a switch where nothing happened is one comparison — the off-path
   price of an armed reactor stays O(1), never O(timers). *)
let hook r () =
  let now = Clock.now r.r_clock in
  if now <> r.last_now || r.timers_dirty then begin
    r.last_now <- now;
    r.timers_dirty <- false;
    let rec fire () =
      match r.timers with
      | tm :: rest when tm.tm_at <= now ->
          r.timers <- rest;
          (match tm.tm_fire with
          | Some f ->
              tm.tm_fire <- None;
              r.armed <- r.armed - 1;
              r.c_timer_fires <- r.c_timer_fires + 1;
              f ()
          | None -> ());
          fire ()
      | _ -> ()
    in
    fire ()
  end

(* Earliest armed timer, if any — the deadline [idle] would sleep to.
   Cancelled entries at the head are dropped on the way. *)
let next_deadline r =
  let rec earliest = function
    | { tm_fire = None; _ } :: rest ->
        r.timers <- rest;
        earliest rest
    | tm :: _ -> Some tm.tm_at
    | [] -> None
  in
  earliest r.timers

(* The system stalled: sleep until the earliest armed timer by advancing
   its reactor's clock to it, then sweep that reactor.  Returns false
   when no timer is armed — the scheduler then resolves a blocked wait.

   Each reactor runs on its own clock (shards are parallel machines), so
   absolute deadlines are not comparable across reactors.  The reactor
   whose earliest timer is the *smallest relative delay* from its own now
   is the one a real cluster would wake first; ties break on list order,
   so the choice is a pure function of the reactor states.  The other
   shards' clocks must not move for a timer that is not theirs. *)
let idle_multi rs () =
  let best = ref None in
  List.iter
    (fun r ->
      match next_deadline r with
      | None -> ()
      | Some at ->
          let delay = max 0 (at - Clock.now r.r_clock) in
          (match !best with
          | Some (_, d) when d <= delay -> ()
          | _ -> best := Some (r, delay)))
    rs;
  match !best with
  | None -> false
  | Some (r, delay) ->
      if delay > 0 then begin
        Clock.charge r.r_clock delay;
        r.c_idle_advances <- r.c_idle_advances + 1
      end;
      hook r ();
      true

let idle r = idle_multi [ r ]

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)

type stats = {
  signals : int;
  wakeups : int;
  parks : int;
  timer_fires : int;
  idle_advances : int;
  parked : int;
  timers : int;
}

let stats r =
  let i = Fiber.interest_stats () in
  {
    signals = i.Fiber.signals;
    wakeups = i.Fiber.wakeups;
    parks = i.Fiber.parks;
    timer_fires = r.c_timer_fires;
    idle_advances = r.c_idle_advances;
    parked = i.Fiber.waiting;
    timers = r.armed;
  }

module For_testing = struct
  let next_deadline = next_deadline
end
