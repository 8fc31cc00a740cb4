(* Checkable chaos scenarios for schedule exploration, as a server ×
   mode table.

   Each scenario builds a fresh simulated world (kernel, app, servers),
   runs a melee of Byzantine clients — optionally under an armed fault
   plan — with the invariant oracle wired to every system call and a
   sampled stream of context switches, and finishes with a full oracle
   sweep (plus a differential-model verify when [diff] is set).  The
   returned string is a deterministic summary of everything observable
   (tallies, guard stats, fault trace digest): two runs with the same
   seed and schedule policy must produce identical summaries, which is
   what [Explore] digests.

   A [server] record holds everything scenario-side about one server —
   its world, client mixes, requests, fault rates and guard sizes; one
   runner per mode (melee, storm, pooled storm, sharded, synth) drives
   any server through its [Service] skeleton.  Every mode runs on a
   reactor: guard and heartbeat deadlines are its timers, and a stalled
   world sleeps to its next timer.

   Failures are exceptions: [Oracle.Violation], [Refvm.Mismatch], a
   scenario's own end-state assertion, anything the master's own code
   raised, or a compartment that died of a class outside
   [Engine.fault_reason] ([fault.unexpected]: contained, but no honest
   server raises one).  [Explore] catches them, captures the scheduler
   decision trace and shrinks it.

   The [racy] scenario is the deliberately buggy control: two sthreads
   increment a shared tagged counter, one of them yielding between its
   read and its write.  Under FIFO scheduling the window never overlaps;
   under seeded random/PCT schedules the lost update manifests and the
   end-state assertion fails — the mutation-style sanity check that the
   explorer actually catches schedule-dependent bugs. *)

module Kernel = Wedge_kernel.Kernel
module Cost_model = Wedge_sim.Cost_model
module Clock = Wedge_sim.Clock
module Stats = Wedge_sim.Stats
module Fiber = Wedge_sim.Fiber
module Fault_plan = Wedge_fault.Fault_plan
module Chan = Wedge_net.Chan
module Guard = Wedge_net.Guard
module Service = Wedge_net.Service
module Reactor = Wedge_sim.Reactor
module Byzantine = Wedge_net.Byzantine
module Drbg = Wedge_crypto.Drbg
module Rsa = Wedge_crypto.Rsa
module W = Wedge_core.Wedge
module Shard = Wedge_net.Shard
module Prot = Wedge_kernel.Prot
module Synth = Wedge_crowbar.Synth
module Httpd_env = Wedge_httpd.Httpd_env
module Https_client = Wedge_httpd.Https_client
module Pop3_env = Wedge_pop3.Pop3_env
module Sshd_env = Wedge_sshd.Sshd_env
module Ssh_client = Wedge_sshd.Ssh_client

type t = {
  s_name : string;
  s_doc : string;
  s_run : policy:Fiber.policy -> diff:bool -> faults:bool -> seed:int -> string;
}

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* Every compartment dies contained, whatever it raised; one that died
   of a class outside [Engine.fault_reason] fails the row, so a server
   bug inside a worker stays loud under exploration. *)
let no_unexpected_faults (k : Kernel.t) =
  match Stats.get k.Kernel.stats "fault.unexpected" with
  | 0 -> ()
  | n ->
      raise
        (Oracle.Violation
           (Printf.sprintf "shard %d: %d compartment(s) died of an unexpected exception"
              k.Kernel.shard n))

(* Run [main] under [policy] with the oracle (and optionally the
   differential model) armed, then sweep.  [summarize] builds the
   deterministic outcome line from whatever the scenario observed.  The
   reactor ticks {e before} the oracle's sampled check — timer-driven
   cuts land first, so invariants like [Guard.heart_check] hold at
   every inspected switch — and a stalled
   world sleeps to its next timer.  [sched_faults] arms the scheduler's
   ["fiber.stall"] site, charging the reactor's clock. *)
let checked ~kernel ~app ~reactor ?sched_faults ~policy ~diff main summarize =
  let oracle = Oracle.create kernel in
  Oracle.set_app oracle app;
  let refvm = if diff then Some (Refvm.create kernel) else None in
  Oracle.install_syscall_hook oracle;
  (match refvm with Some rv -> Refvm.arm rv | None -> ());
  let on_switch =
    let rhook = Reactor.hook reactor and ohook = Oracle.hook oracle in
    fun () ->
      rhook ();
      ohook ()
  in
  Fun.protect
    ~finally:(fun () ->
      Oracle.remove_syscall_hook oracle;
      match refvm with Some rv -> Refvm.disarm rv | None -> ())
    (fun () ->
      Fiber.run ?faults:sched_faults ~clock:(Reactor.clock reactor)
        ~on_idle:(Reactor.idle reactor) ~policy ~on_switch (fun () -> main oracle);
      Oracle.check oracle;
      no_unexpected_faults kernel;
      (match refvm with Some rv -> Refvm.verify rv | None -> ());
      Printf.sprintf "%s checks=%d diff_events=%s" (summarize ())
        (Oracle.checks_run oracle)
        (match refvm with Some rv -> string_of_int (Refvm.events rv) | None -> "-"))

let tally_to_string (t : Byzantine.tally) =
  Printf.sprintf "ok=%d refused=%d rejected=%d cut=%d err=%d" t.Byzantine.completed
    t.refused t.rejected t.cut t.errors

let guard_to_string (s : Guard.stats) =
  Printf.sprintf "admitted=%d busy=%d draining=%d timed_out=%d forced=%d active=%d"
    s.Guard.s_admitted s.s_rejected_busy s.s_rejected_draining s.s_timed_out s.s_forced
    s.s_active

(* Connections the guard turned away: for capacity or drain, the only
   two reasons it has. *)
let rejected (s : Guard.stats) = s.Guard.s_rejected_busy + s.s_rejected_draining

let plan_digest plan = Digest.to_hex (Digest.string (Fault_plan.trace plan))

let chan_faults plan prob =
  Fault_plan.rule plan ~site:"chan.read" ~prob [ Fault_plan.Drop; Fault_plan.Reset ];
  Fault_plan.rule plan ~site:"chan.write" ~prob [ Fault_plan.Reset ]

(* Recovery epilogue for the storm scenarios: with the fault plan already
   disarmed, feed clean probe connections, 6 µs apart, until two in a row
   leave the server's own [<what>.degraded] counter unchanged — the
   scenario's "system healed" assertion.  Returns the rounds it took.
   The bound only trips when recovery is genuinely broken. *)
let heal ~what stats guard clock probe =
  let degraded () = Stats.get stats (what ^ ".degraded") in
  let rec go rounds clean =
    if clean >= 2 then rounds
    else if rounds >= 60 then
      raise (Oracle.Violation (what ^ ": still degrading after the storm ended"))
    else begin
      let before = degraded () in
      Clock.charge clock 6_000;
      probe ();
      (* The probe has settled once its serve fiber released the slot. *)
      Fiber.wait_until ~what:(what ^ " probe settled") (fun () -> Guard.active guard = 0);
      go (rounds + 1) (if degraded () = before then clean + 1 else 0)
    end
  in
  go 0 0

(* ------------------------------------------------------------------ *)
(* The server table                                                     *)

(* Where a mode's clients connect: one listener on one kernel, or the
   hashed front door over the shards. *)
type 'env site = Single of 'env * Chan.listener * Clock.t | Sharded of 'env array * Shard.front

let connect site ~key =
  match site with
  | Single (env, l, _) -> (env, Chan.connect l)
  | Sharded (envs, front) ->
      let sid, ep = Shard.front_connect front ~key in
      (envs.(sid), ep)

(* Client [i]'s listener and the clock it is served on: each sharded
   client hashes to its home shard, as the front door would route it. *)
let home site i =
  match site with
  | Single (_, l, clock) -> (l, clock)
  | Sharded (_, front) ->
      let fab = Shard.front_fabric front in
      let sid = Shard.route fab ~key:(Printf.sprintf "conn-%d" i) in
      (Shard.front_listener front sid, (Shard.shard fab sid).Shard.kernel.Kernel.clock)

let listener site i = fst (home site i)

(* Clients beyond the Byzantine mix: spawned after it, settled before the
   drain, their fields printed right after the tally. *)
type extra = { spawn : unit -> unit; settled : unit -> bool; fields : unit -> string }

let no_extra = { spawn = ignore; settled = (fun () -> true); fields = (fun () -> "") }

(* One synthesis workload run: did it succeed, and the summary fields
   printed before and after the denial count. *)
type synth_run = { ok : bool; before : string; after : string }

type 'env server = {
  service : 'env Service.t;
  melee_doc : string;
  image_pages : int;
  world : seed:int -> Kernel.t -> 'env;  (* the installed server on a fresh kernel *)
  chan_faults : float;  (* chan.read/write fault rate *)
  alloc_faults : float option;  (* physmem.alloc rate, single-kernel melee only *)
  backlog : int;
  max_conns : int;
  header_deadline_ns : int option;  (* of the melee and sharded guards *)
  is_rejection : string -> bool;
  request : string;  (* one-shot clients' request *)
  half : string;  (* half-close clients' request *)
  stall_prefix : string;  (* mid-header stallers' never-finished prefix *)
  n_melee : int;
  n_silent : int;  (* melee clients that only a drain cut resolves *)
  mix : Byzantine.tally -> Chan.listener -> int -> unit;  (* melee client [i] *)
  extra : seed:int -> 'env site -> extra;
  cgates : bool;  (* storms roll callgate faults *)
  n_storm : int;
  heal_probe : (seed:int -> 'env -> Chan.listener -> unit -> unit) option;
      (* default: a one-shot [request] *)
  synth : (seed:int -> 'env -> Synth.t option -> synth_run) option;
      (* the profile-synthesis workload, for servers with synth hooks *)
}

let name srv = srv.service.Service.name
let app_of srv env = W.app_of (srv.service.Service.main env)

(* ---------- httpd: TLS-terminating partitioned server ---------- *)

(* Real TLS clients alongside the garbage: both must be served or fail
   cleanly, never hang. *)
let tls_clients ~seed site =
  let served = ref 0 and errors = ref 0 in
  let users = [| "alice"; "bob" |] in
  {
    spawn =
      (fun () ->
        Array.iteri
          (fun i key ->
            Fiber.spawn (fun () ->
                let rng = Drbg.create ~seed:(seed + i + 1) in
                match connect site ~key with
                | exception _ -> incr errors
                | env, ep -> (
                    match
                      Https_client.get ~rng ~pinned:env.Httpd_env.priv.Rsa.pub
                        ~path:"/index.html" ep
                    with
                    | { Https_client.response = Some r; _ } when r.Wedge_httpd.Http.status = 200 ->
                        incr served
                    | _ -> incr errors
                    | exception _ -> incr errors)))
          users);
    settled = (fun () -> !served + !errors >= Array.length users);
    fields = (fun () -> Printf.sprintf " tls_ok=%d tls_err=%d" !served !errors);
  }

let accept_next l =
  match Chan.accept l with
  | Some ep -> ep
  | None -> failwith "synth: listener shut down before the client connected"

(* Two TLS fetches, the second resuming the first's session, so all three
   callgate operations (new session, premaster, resume) are recorded. *)
let httpd_synth ~seed env synth =
  let l = Chan.listener ~costs:Cost_model.free ~backlog:8 () in
  let served = ref 0 and errors = ref 0 in
  let session = ref None in
  let fetch i resume =
    let rng = Drbg.create ~seed:(seed + i) in
    match Chan.connect l with
    | exception _ -> incr errors
    | ep -> (
        match
          Https_client.get ?resume ~rng ~pinned:env.Httpd_env.priv.Rsa.pub ~path:"/index.html" ep
        with
        | { Https_client.response = Some r; session = s; _ } when r.Wedge_httpd.Http.status = 200 ->
            session := s;
            incr served
        | _ -> incr errors
        | exception _ -> incr errors)
  in
  Fiber.spawn (fun () -> fetch 1 None);
  Wedge_httpd.Httpd_simple.serve_connection ?synth env (accept_next l);
  (* Let client 1 finish before client 2 starts: the session it stored is
     what makes fetch 2 exercise the resumption path on every schedule. *)
  Fiber.wait_until (fun () -> !served + !errors >= 1);
  Fiber.spawn (fun () -> fetch 2 !session);
  Wedge_httpd.Httpd_simple.serve_connection ?synth env (accept_next l);
  Fiber.wait_until (fun () -> !served + !errors >= 2);
  Chan.shutdown l;
  { ok = !served = 2; before = Printf.sprintf "served=%d errors=%d" !served !errors; after = "" }

let httpd =
  let is_rejection s = contains s "503" in
  let half = "GET / HTTP/1.0\r\n\r\n" and request = "GET /index.html HTTP/1.1\r\n\r\n" in
  let image_pages = 60 in
  {
    service = Wedge_httpd.Httpd_simple.service;
    melee_doc = "TLS httpd under garbage handshakes, faults and real clients";
    image_pages;
    world = (fun ~seed k -> Httpd_env.install ~image_pages ~seed k);
    chan_faults = 0.02;
    alloc_faults = Some 0.001;
    backlog = 8;
    max_conns = 4;
    header_deadline_ns = None;
    is_rejection;
    request;
    half;
    (* A truncated ClientHello frame (header claims 256 bytes, body never
       arrives): the worker blocks mid-record, and only hang detection
       can reclaim the slot. *)
    stall_prefix = "h\001\000partial-hello";
    n_melee = 8;
    (* The silent holder (i = 5) only resolves when drain force-cuts it —
       the melee guard has no header deadline — so the melee waits for
       everyone else, drains, then for the straggler's cut to land. *)
    n_silent = 1;
    mix =
      (fun t l i ->
        if i mod 3 = 0 then Byzantine.half_close t l ~request:half ~is_rejection
        else if i mod 5 = 0 then Byzantine.silent t l
        else
          (* Plaintext HTTP at a TLS endpoint: handshake garbage the
             worker must contain. *)
          Byzantine.oneshot t l ~request ~is_rejection);
    extra = tls_clients;
    cgates = true;
    n_storm = 12;
    heal_probe = None;
    synth = Some httpd_synth;
  }

(* ---------- httpd_mitm: Figures 3–5, the split §5.1.2 argues for ---------- *)

(* Figure 2's clients, mix and faults against the man-in-the-middle
   partitioning: two compartments and seven callgates per connection. *)
let httpd_mitm =
  {
    httpd with
    service = Wedge_httpd.Httpd_mitm.service;
    melee_doc = "Figures 3-5 TLS httpd under garbage handshakes, faults and real clients";
    synth = None;
  }

(* ---------- pop3: partitioned server under flood and slow-loris ---------- *)

(* POP3's workload has no client RNG: the seed does not enter it. *)
let pop3_synth ~seed:_ main synth =
  let l = Chan.listener ~costs:Cost_model.free ~backlog:8 () in
  let t = Byzantine.tally () in
  let is_rejection s = contains s "-ERR busy" in
  Fiber.spawn (fun () ->
      Byzantine.oneshot t l
        ~request:"USER alice\r\nPASS wonderland\r\nSTAT\r\nLIST\r\nRETR 1\r\nQUIT\r\n"
        ~is_rejection);
  Wedge_pop3.Pop3_wedge.serve_connection ?synth main (accept_next l);
  Fiber.wait_until (fun () -> Byzantine.total t >= 1);
  Fiber.spawn (fun () ->
      Byzantine.oneshot t l ~request:"USER alice\r\nPASS wonderland\r\nSTAT\r\nQUIT\r\n"
        ~is_rejection);
  Wedge_pop3.Pop3_wedge.serve_connection ?synth main (accept_next l);
  Fiber.wait_until (fun () -> Byzantine.total t >= 2);
  Chan.shutdown l;
  let k = W.kernel (W.app_of main) in
  {
    ok = t.Byzantine.completed = 2;
    before = tally_to_string t;
    after = Printf.sprintf " degraded=%d" (Stats.get k.Kernel.stats "pop3.degraded");
  }

let pop3 =
  let is_rejection s = contains s "-ERR busy" in
  let half = "USER alice\r\nQUIT\r\n"
  and request = "USER alice\r\nPASS wonderland\r\nSTAT\r\nLIST\r\nRETR 1\r\nQUIT\r\n" in
  let image_pages = 60 in
  {
    service = Wedge_pop3.Pop3_wedge.service;
    melee_doc = "partitioned POP3 under flood, faults and slow-loris";
    image_pages;
    world =
      (fun ~seed:_ k ->
        Pop3_env.install k Pop3_env.default_users;
        let app = W.create_app ~image_pages k in
        W.boot app;
        W.main_ctx app);
    chan_faults = 0.03;
    alloc_faults = Some 0.002;
    backlog = 8;
    max_conns = 4;
    header_deadline_ns = Some 5_000;
    is_rejection;
    request;
    half;
    stall_prefix = "USER ali";
    n_melee = 16;
    n_silent = 0;
    mix =
      (fun t l i ->
        if i mod 4 = 0 then Byzantine.half_close t l ~request:half ~is_rejection
        else if i mod 7 = 0 then
          Byzantine.oversized t l ~size:2_000 ~is_rejection:(fun s -> contains s "too long")
        else Byzantine.oneshot t l ~request ~is_rejection);
    (* A slow-loris client behind its home listener (key 0, outside the
       mix's 1..n_melee), cut by the guard's header deadline. *)
    extra =
      (fun ~seed:_ site ->
        let loris = Byzantine.tally () in
        let l, clock = home site 0 in
        {
          spawn =
            (fun () ->
              Fiber.spawn (fun () ->
                  Byzantine.slow_loris loris l ~clock ~step_ns:1_000 ~request:half
                    ~is_rejection));
          settled = (fun () -> Byzantine.total loris = 1);
          fields = (fun () -> Printf.sprintf " loris_cut=%d" loris.Byzantine.cut);
        });
    cgates = true;
    n_storm = 12;
    heal_probe = None;
    synth = Some pop3_synth;
  }

(* ---------- sshd: the Wedge-partitioned OpenSSH (Figure 6) ---------- *)

let ssh_login ~rng env ep =
  Ssh_client.login ~rng ~pinned_rsa:env.Sshd_env.host_rsa.Rsa.pub
    ~pinned_dsa:env.Sshd_env.host_dsa.Wedge_crypto.Dsa.pub ~user:"alice"
    (Ssh_client.Password "wonderland") ep

(* The healing probe is a real SSH login: garbage cannot prove the
   backend healthy, a key exchange + authentication can. *)
let ssh_login_probe ~seed env l =
  let probe_n = ref 0 in
  fun () ->
    incr probe_n;
    match Chan.connect l with
    | exception _ -> ()
    | ep -> (
        match ssh_login ~rng:(Drbg.create ~seed:(seed + 0x5AFE + !probe_n)) env ep with
        | Ok conn -> Ssh_client.close conn
        | Error _ -> ( try Chan.close ep with _ -> ())
        | exception _ -> ( try Chan.close ep with _ -> ()))

let sshd_synth ~seed env synth =
  let l = Chan.listener ~costs:Cost_model.free ~backlog:4 () in
  let ok = ref 0 and finished = ref 0 in
  Fiber.spawn (fun () ->
      Fun.protect
        ~finally:(fun () -> incr finished)
        (fun () ->
          match Chan.connect l with
          | exception _ -> ()
          | ep -> (
              match ssh_login ~rng:(Drbg.create ~seed:(seed + 11)) env ep with
              | Ok conn ->
                  incr ok;
                  Ssh_client.close conn
              | Error _ -> ())));
  Wedge_sshd.Sshd_wedge.serve_connection ?synth env (accept_next l);
  Fiber.wait_until (fun () -> !finished >= 1);
  Chan.shutdown l;
  { ok = !ok = 1; before = Printf.sprintf "ok=%d" !ok; after = "" }

let sshd =
  let is_rejection _ = false in
  let half = "SSH-2.0-chaos\r\n\r\n" and request = "SSH-2.0-chaos\r\nnot-a-kexinit\r\n" in
  let image_pages = 40 in
  {
    service = Wedge_sshd.Sshd_wedge.service;
    melee_doc = "Figure 6 sshd under protocol garbage";
    image_pages;
    world = (fun ~seed k -> Sshd_env.install ~image_pages ~seed k);
    chan_faults = 0.02;
    alloc_faults = None;
    backlog = 6;
    max_conns = 3;
    header_deadline_ns = None;
    is_rejection;
    request;
    half;
    (* A truncated wire frame: the header claims a 256-byte payload, so
       the worker blocks mid-message — only a heart cut can reclaim it.
       (A bad leading byte like a raw "SSH-2.0-" banner fails fast
       instead of hanging.) *)
    stall_prefix = "D\001\000SSH-2.0-cha";
    n_melee = 8;
    n_silent = 0;
    mix =
      (fun t l i ->
        if i mod 3 = 0 then Byzantine.half_close t l ~request:half ~is_rejection
        else Byzantine.oneshot t l ~request ~is_rejection);
    extra = (fun ~seed:_ _ -> no_extra);
    cgates = true;
    n_storm = 9;
    heal_probe = Some ssh_login_probe;
    synth = Some sshd_synth;
  }

(* ------------------------------------------------------------------ *)
(* Melee: one kernel, Byzantine clients, faults                         *)

let spawn_mix srv t site =
  for i = 1 to srv.n_melee do
    Fiber.spawn (fun () -> srv.mix t (listener site i) i)
  done

let run_melee srv ~policy ~diff ~faults ~seed =
  let name = name srv in
  let plan = Fault_plan.create ~seed () in
  if faults then begin
    chan_faults plan srv.chan_faults;
    Option.iter
      (fun prob -> Fault_plan.rule plan ~site:"physmem.alloc" ~prob [ Fault_plan.Enomem ])
      srv.alloc_faults
  end;
  Fault_plan.disarm plan;
  let k = Kernel.create ~costs:Cost_model.free ~faults:plan () in
  let env = srv.world ~seed k in
  let l = Chan.listener ~costs:Cost_model.free ~faults:plan ~backlog:srv.backlog () in
  let reactor = Reactor.create ~clock:k.Kernel.clock () in
  let guard =
    Guard.create ~reactor ?header_deadline_ns:srv.header_deadline_ns
      ~max_conns:srv.max_conns ()
  in
  let t = Byzantine.tally () in
  let site = Single (env, l, k.Kernel.clock) in
  let extra = srv.extra ~seed site in
  checked ~kernel:k ~app:(app_of srv env) ~reactor ~policy ~diff
    (fun oracle ->
      Oracle.add_guard oracle ~name:(name ^ ".guard") guard;
      let before = Oracle.holdings (app_of srv env) in
      Fiber.spawn (fun () -> Service.serve_loop srv.service env guard l);
      Fault_plan.arm plan;
      spawn_mix srv t site;
      extra.spawn ();
      (* [>=]: an injected chan fault can cut a silent holder early,
         landing its tally before the drain below. *)
      Fiber.wait_until ~what:(name ^ " melee resolved") (fun () ->
          Byzantine.total t >= srv.n_melee - srv.n_silent && extra.settled ());
      Fault_plan.disarm plan;
      Guard.drain guard l;
      Fiber.wait_until ~what:"silent holders cut" (fun () -> Byzantine.total t = srv.n_melee);
      Oracle.check_returned ~what:name (app_of srv env) before)
    (fun () ->
      let s = Guard.stats guard in
      Printf.sprintf "%s %s%s %s degraded=%d rejected=%d plan=%s" name (tally_to_string t)
        (extra.fields ()) (guard_to_string s)
        (Stats.get k.Kernel.stats (name ^ ".degraded"))
        (rejected s) (plan_digest plan))

(* ------------------------------------------------------------------ *)
(* RACY: the deliberately schedule-dependent lost-update bug           *)

let racy_rounds = 3

let run_racy ~policy ~diff ~faults:_ ~seed:_ =
  let k = Kernel.create ~costs:Cost_model.free () in
  let app = W.create_app ~image_pages:40 k in
  W.boot app;
  let main_ctx = W.main_ctx app in
  let tag = W.tag_new ~name:"counter" main_ctx in
  let addr = W.smalloc main_ctx 8 tag in
  W.write_u64 main_ctx addr 0;
  let done_n = ref 0 in
  (* Worker A ([yields_mid = false]) never yields: it runs its whole
     increment loop as one scheduling unit.  Worker B opens a window
     between read and write.  Spawned A-then-B, round-robin runs A to
     completion before B's first window opens, so the lost update only
     manifests under schedules that start B first — exactly the
     schedule-dependence exploration must be able to find. *)
  let worker yields_mid ctx _ =
    for _ = 1 to racy_rounds do
      let v = W.read_u64 ctx addr in
      if yields_mid then Fiber.yield ();
      (* The unlocked read-modify-write: any increment scheduled into the
         window above is lost. *)
      W.write_u64 ctx addr (v + 1);
      if yields_mid then Fiber.yield ()
    done;
    0
  in
  let spawn_worker yields_mid =
    Fiber.spawn (fun () ->
        let sc = W.sc_create () in
        W.sc_mem_add sc tag Wedge_kernel.Prot.RW;
        ignore (W.sthread_join main_ctx (W.sthread_create main_ctx sc (worker yields_mid) 0));
        incr done_n)
  in
  checked ~kernel:k ~app ~reactor:(Reactor.create ~clock:k.Kernel.clock ()) ~policy ~diff
    (fun _oracle ->
      spawn_worker false;
      spawn_worker true;
      Fiber.wait_until ~what:"racy workers joined" (fun () -> !done_n = 2);
      let final = W.read_u64 main_ctx addr in
      if final <> 2 * racy_rounds then
        raise
          (Oracle.Violation
             (Printf.sprintf "racy: lost update — counter %d after %d increments" final
                (2 * racy_rounds))))
    (fun () -> Printf.sprintf "racy counter=%d" (W.read_u64 main_ctx addr))

(* ------------------------------------------------------------------ *)
(* Fault storms: self-healing under injected crashes AND induced hangs.

   On top of the channel/memory faults of the base scenarios, the storm
   plans roll ["fiber.stall"] (a fiber freezes for 20 µs of simulated
   time — far past the hang deadline) and ["cgate.call"] (a callgate
   stalls or crashes mid-call).  The servers run their production
   serve path — a faulted compartment ends its connection, degraded —
   behind a guard with a hang deadline, their
   compartments stamped from the frozen image (pooled) or booted
   (fresh); the scenario asserts the full self-healing story: every
   hung compartment is cut at its heart's deadline (oracle invariant),
   the listener survives, clean probes stop degrading once the storm
   passes (heal epilogue), and the oracle sweeps clean — no leaked frame
   or descriptor across any fault or cut. *)

let storm_plan ~pooled ~seed ~faults ~cgates =
  let plan = Fault_plan.create ~seed () in
  if faults then begin
    chan_faults plan 0.04;
    Fault_plan.rule plan ~site:"physmem.alloc" ~prob:0.002 [ Fault_plan.Enomem ];
    Fault_plan.rule plan ~site:"fiber.stall" ~prob:0.003 [ Fault_plan.Delay 20_000 ];
    if cgates then
      Fault_plan.rule plan ~site:"cgate.call" ~prob:0.02
        [ Fault_plan.Delay 20_000; Fault_plan.Crash ];
    if pooled then begin
      (* The restore path itself is attackable: stamps crash mid-restore
         (the frozen image and its refcounts must survive pristine — the
         oracle's frozen-frame sweep checks exactly that), and the
         mid-storm freeze probe rolls its own site. *)
      Fault_plan.rule plan ~site:"pool.stamp" ~prob:0.05 [ Fault_plan.Crash ];
      Fault_plan.rule plan ~site:"pool.freeze" ~prob:0.5 [ Fault_plan.Crash ]
    end
  end;
  Fault_plan.disarm plan;
  plan

(* The pooled storms' MTTR claim, made concrete: recovery time differs
   from the fresh-boot storm only by the spawn term, so a twin world
   with the paper's spawn prices armed (Table 2: per-PTE and per-fd
   copy; the flat stamp charge) measures exactly that term for the same
   image size the storm ran with.  Fresh boot pays O(pages); a stamp
   pays the flat [pool_stamp] — the assertion is strict. *)
let spawn_advantage ~image_pages =
  let costs =
    { Cost_model.free with Cost_model.pte_copy = 190; fd_dup = 250; pool_stamp = 950 }
  in
  let k = Kernel.create ~costs () in
  let clock = k.Kernel.clock in
  let app = W.create_app ~image_pages k in
  W.boot app;
  let main = W.main_ctx app in
  let worker _ _ = 0 in
  let fresh_ns = ref 0 and stamp_ns = ref 0 in
  Fiber.run ~clock (fun () ->
      let sc = W.sc_create () in
      W.sc_set_uid sc 99;
      let t0 = Clock.now clock in
      ignore (W.sthread_create main sc worker 0);
      fresh_ns := Clock.now clock - t0;
      let pool_sc = W.sc_create () in
      W.sc_set_uid pool_sc 99;
      let pool = W.Pool.freeze ~name:"storm.pool" main pool_sc in
      let t1 = Clock.now clock in
      ignore (W.sthread_create ~spawn:(W.Stamp pool) main (W.sc_create ()) worker 0);
      stamp_ns := Clock.now clock - t1);
  if !stamp_ns >= !fresh_ns then
    raise
      (Oracle.Violation
         (Printf.sprintf "pooled stamp (%d ns) does not beat fresh boot (%d ns)"
            !stamp_ns !fresh_ns));
  (!fresh_ns, !stamp_ns)

(* Mid-storm freeze probe for the pooled storms: with the plan armed,
   ["pool.freeze"] may crash the capture — either way the image registry
   and refcounts must sweep clean, and a successful probe exercises
   [discard]'s decref path under the same storm. *)
let freeze_probe ~pooled main_ctx =
  if not pooled then "-"
  else
    let sc = W.sc_create () in
    match W.Pool.freeze ~name:"storm.probe" main_ctx sc with
    | pool ->
        W.Pool.discard main_ctx pool;
        "ok"
    | exception _ -> "fault"

let pool_summary ~pooled app =
  if not pooled then ""
  else
    Printf.sprintf " pool=%d/%d/%d"
      app.Wedge_core.Engine.pool_freezes app.Wedge_core.Engine.pool_stamps
      app.Wedge_core.Engine.pool_hits

let assert_pool_used ~pooled ~server app =
  if pooled && app.Wedge_core.Engine.pool_hits = 0 then
    raise (Oracle.Violation (server ^ ": pooled storm never stamped a worker"))

(* A heart's deadline is its connection's timer, fired at the first
   reactor tick past it, so a hung heart is cut within one scheduling
   step of its deadline.  The oracle re-checks between switches too
   (syscall entries), where a single large clock charge (a 20 µs induced
   stall) can land before the next tick — the slack covers exactly
   that. *)
let storm_heart_invariant oracle guard =
  Oracle.add_invariant oracle ~name:"watchdog.cut-by-deadline" (fun () ->
      Guard.heart_check ~slack_ns:50_000 guard)

let storm_summary ~server ~k ~t ~heal ~guard =
  let s = Guard.stats guard in
  Printf.sprintf "%s %s heal=%d %s wd_cuts=%d wd_beats=%d degraded=%d plan_armed" server
    (tally_to_string t) heal (guard_to_string s) s.Guard.s_hang_cuts s.s_beats
    (Stats.get k.Kernel.stats (server ^ ".degraded"))

let run_storm ~pooled srv ~policy ~diff ~faults ~seed =
  let name = name srv in
  let advantage = if pooled then Some (spawn_advantage ~image_pages:srv.image_pages) else None in
  let plan = storm_plan ~pooled ~seed ~faults ~cgates:srv.cgates in
  let k = Kernel.create ~costs:Cost_model.free ~faults:plan () in
  let clock = k.Kernel.clock in
  let env = srv.world ~seed k in
  let app = app_of srv env in
  let l = Chan.listener ~costs:Cost_model.free ~faults:plan ~backlog:srv.backlog () in
  let reactor = Reactor.create ~clock () in
  let guard =
    Guard.create ~reactor ~header_deadline_ns:8_000 ~hang_deadline_ns:6_000
      ~max_conns:srv.max_conns ()
  in
  let t = Byzantine.tally () in
  let is_rejection = srv.is_rejection in
  (* A pooled storm stamps from the image, frozen here before the plan
     arms: the freeze must not roll ["pool.freeze"]. *)
  if pooled then ignore (srv.service.Service.image env);
  let heal_rounds = ref 0 in
  let probe_outcome = ref "-" in
  let probe =
    match srv.heal_probe with
    | Some p -> p ~seed env l
    | None ->
        let probes = Byzantine.tally () in
        fun () -> Byzantine.oneshot probes l ~request:srv.request ~is_rejection
  in
  checked ~kernel:k ~app ~reactor ~sched_faults:plan ~policy ~diff
    (fun oracle ->
      Oracle.add_guard oracle ~name:(name ^ ".guard") guard;
      storm_heart_invariant oracle guard;
      let before = Oracle.holdings app in
      Fiber.spawn (fun () -> Service.serve_loop srv.service env guard l);
      Fault_plan.arm plan;
      probe_outcome := freeze_probe ~pooled (W.main_ctx app);
      for i = 1 to srv.n_storm do
        Fiber.spawn (fun () ->
            if i mod 4 = 0 then
              Byzantine.mid_header_stall t l ~prefix:srv.stall_prefix ~is_rejection
            else if i mod 5 = 0 then Byzantine.half_close t l ~request:srv.half ~is_rejection
            else Byzantine.oneshot t l ~request:srv.request ~is_rejection)
      done;
      Fiber.wait_until ~what:(name ^ " storm resolved") (fun () ->
          Byzantine.total t = srv.n_storm);
      Fault_plan.disarm plan;
      heal_rounds := heal ~what:name k.Kernel.stats guard clock probe;
      Guard.drain guard l;
      Oracle.check_returned ~what:name app before;
      assert_pool_used ~pooled ~server:name app)
    (fun () ->
      let rs = Reactor.stats reactor in
      storm_summary ~server:name ~k ~t ~heal:!heal_rounds ~guard
      ^ pool_summary ~pooled app
      ^ (if pooled then Printf.sprintf " freeze2=%s" !probe_outcome else "")
      ^ (match advantage with
        | None -> ""
        | Some (f, s) -> Printf.sprintf " spawn_fresh=%dns spawn_stamp=%dns" f s)
      ^ Printf.sprintf " reactor_parks=%d reactor_wakes=%d reactor_timers=%d"
          rs.Reactor.parks rs.Reactor.wakeups rs.Reactor.timer_fires)

(* ------------------------------------------------------------------ *)
(* Sharded scenarios: N kernels behind a hashed front door, with the
   cross-shard shootdown fabric under the oracle.                      *)

(* [checked], multikernel edition: one oracle per shard (each wired to
   its kernel's syscalls and fed a sampled stream of switches), the
   fabric's link handlers started before and drained after [main], and
   the end-of-run sweep replaced by {!Oracle.global_sweep} — every
   shard's full refcount/TLB/smalloc sweep plus the fabric's
   gtag audit. *)
let checked_sharded ~fab ~policy ~diff main summarize =
  let shards = Shard.shards fab in
  let oracles =
    Array.map
      (fun (s : Shard.shard) ->
        let o = Oracle.create s.Shard.kernel in
        Oracle.set_app o s.Shard.app;
        o)
      shards
  in
  let refvms =
    if diff then
      Array.to_list (Array.map (fun (s : Shard.shard) -> Refvm.create s.Shard.kernel) shards)
    else []
  in
  Array.iter Oracle.install_syscall_hook oracles;
  List.iter Refvm.arm refvms;
  let on_switch =
    let fhook = Shard.hook fab in
    let ohooks = Array.map Oracle.hook oracles in
    fun () ->
      fhook ();
      Array.iter (fun h -> h ()) ohooks
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter Oracle.remove_syscall_hook oracles;
      List.iter Refvm.disarm refvms)
    (fun () ->
      Fiber.run ~policy ~on_switch ~on_idle:(Shard.idle fab) (fun () ->
          Shard.start fab;
          main oracles;
          Shard.stop fab);
      Oracle.global_sweep ~fabric:fab (Array.to_list oracles);
      Array.iter (fun (s : Shard.shard) -> no_unexpected_faults s.Shard.kernel) shards;
      List.iter Refvm.verify refvms;
      Printf.sprintf "%s checks=%d diff_events=%s" (summarize ())
        (Array.fold_left (fun acc o -> acc + Oracle.checks_run o) 0 oracles)
        (if diff then
           string_of_int (List.fold_left (fun acc rv -> acc + Refvm.events rv) 0 refvms)
         else "-"))

(* Mid-run global-revocation exercise: a gtag replicated on every shard,
   read through a recycled callgate on shard 1 — whose pooled sthread
   keeps its address space between invocations, the stale-TLB window —
   then deleted from shard 0.  [gtag_delete] must not return before the
   cross-shard shootdown revoked shard 1's replica, so the re-invocation
   faults (join returns -1) instead of reading stale frames: the fault
   is contained to the caller, never served to a client. *)
let gtag_epilogue ~what fab =
  let s1 = Shard.shard fab 1 in
  let main1 = W.main_ctx s1.Shard.app in
  let g = Shard.gtag_new ~name:"secret" ~pages:1 fab in
  let r1 = Shard.replica g ~sid:1 in
  let addr = W.smalloc main1 16 r1 in
  W.write_string main1 addr "per-conn secret!";
  let sc = W.sc_create () in
  let cgsc = W.sc_create () in
  W.sc_mem_add cgsc r1 Prot.R;
  let gate =
    W.sc_cgate_add ~spawn:W.Recycle main1 sc ~name:"peek"
      ~entry:(fun gctx ~trusted:_ ~arg:_ -> W.read_u8 gctx addr)
      ~cgsc ~trusted:0
  in
  let invoke () =
    W.sthread_join main1
      (W.sthread_create main1 sc
         (fun ctx _ -> W.cgate ctx gate ~perms:(W.sc_create ()) ~arg:0)
         0)
  in
  if invoke () <> Char.code 'p' then
    raise (Oracle.Violation (what ^ ": live gtag replica unreadable on shard 1"));
  Shard.gtag_delete fab ~sid:0 g;
  if Shard.gtag_live g then
    raise (Oracle.Violation (what ^ ": gtag still live after delete"));
  if invoke () <> -1 then
    raise
      (Oracle.Violation (what ^ ": stale replica readable after global revocation"));
  W.cgate_delete main1 gate;
  Printf.sprintf "gtag=revoked xshoot=%d" (Shard.cross_shard_shootdowns fab)

let sharded_shards = 2

let shard_stats_summary ~prefix fab front =
  String.concat " "
    (List.mapi
       (fun i (s : Shard.shard) ->
         Printf.sprintf "s%d[%s deg=%d rej=%d]" i
           (guard_to_string (Guard.stats (Shard.front_guard front i)))
           (Stats.get s.Shard.kernel.Kernel.stats (prefix ^ ".degraded"))
           (rejected (Guard.stats (Shard.front_guard front i))))
       (Array.to_list (Shard.shards fab)))

let run_sharded srv ~policy ~diff ~faults ~seed =
  let name = name srv in
  let plan = Fault_plan.create ~seed () in
  if faults then chan_faults plan srv.chan_faults;
  Fault_plan.disarm plan;
  let envs =
    Array.init sharded_shards (fun i ->
        srv.world ~seed:(seed + i)
          (Kernel.create ~costs:Cost_model.free ~faults:plan ~shard:i ()))
  in
  let fab =
    Shard.create
      (Array.map
         (fun env ->
           let app = app_of srv env in
           (W.kernel app, app))
         envs)
  in
  let front =
    Shard.front ~costs:Cost_model.free ~faults:plan ~backlog:srv.backlog
      ?header_deadline_ns:srv.header_deadline_ns ~max_conns:srv.max_conns fab
  in
  let t = Byzantine.tally () in
  let site = Sharded (envs, front) in
  let extra = srv.extra ~seed site in
  let revocation = ref "" in
  checked_sharded ~fab ~policy ~diff
    (fun oracles ->
      Array.iteri
        (fun i o ->
          Oracle.add_guard o ~name:(Printf.sprintf "%s.guard.%d" name i) (Shard.front_guard front i))
        oracles;
      let before = Array.map (fun env -> Oracle.holdings (app_of srv env)) envs in
      Service.serve_sharded srv.service envs front;
      Fault_plan.arm plan;
      spawn_mix srv t site;
      extra.spawn ();
      Fiber.wait_until ~what:(name ^ " sharded melee resolved") (fun () ->
          Byzantine.total t >= srv.n_melee - srv.n_silent && extra.settled ());
      Fault_plan.disarm plan;
      revocation := gtag_epilogue ~what:(name ^ "_sharded") fab;
      Shard.front_drain front;
      Fiber.wait_until ~what:"silent holders cut" (fun () -> Byzantine.total t = srv.n_melee);
      Array.iteri
        (fun i env ->
          Oracle.check_returned
            ~what:(Printf.sprintf "%s_sharded shard %d" name i)
            (app_of srv env) before.(i))
        envs)
    (fun () ->
      Printf.sprintf "%s_sharded %s%s %s %s plan=%s" name (tally_to_string t) (extra.fields ())
        (shard_stats_summary ~prefix:name fab front)
        !revocation (plan_digest plan))

(* ------------------------------------------------------------------ *)
(* Synthesized least-privilege profiles: record → enforce (§3.4, §7)   *)

(* Each synth scenario runs the same clean workload twice, in fresh
   worlds.  First in Record mode under a fixed deterministic schedule —
   the synthesized profile must be a pure function of the seed, never of
   the explored schedule, or the exploration digest could not be stable.
   Then in Enforce mode under the explored schedule, with the profile
   replacing every hand-written security context and the oracle holding
   the "installed ⊇ observed" invariant at every sampled switch.  No
   fault plan is armed in either phase: a fault-free enforced run under
   the minimal profile is exactly the claim being verified (tightening
   any single grant is the matching negative, exercised in
   test_synth.ml). *)

let workload srv =
  match srv.synth with
  | Some w -> w
  | None -> invalid_arg (name srv ^ ": no synthesis workload")

(* One deterministic (round-robin) run of the server's synthesis
   workload with [synth] threaded through a fresh world.  Shared by the
   scenarios below and by [wedge_cli synth]. *)
let synth_oneshot srv ~seed synth =
  let env = srv.world ~seed (Kernel.create ~costs:Cost_model.free ()) in
  let run = ref None in
  Fiber.run ~policy:Fiber.Round_robin (fun () -> run := Some (workload srv ~seed env synth));
  Option.get !run

(* Record phase: deterministic schedule, fresh world, assert the clean
   workload actually succeeded (a profile synthesized from a broken run
   would be vacuously tight). *)
let record srv ~seed =
  let synth = Synth.create ~name:(name srv) Synth.Record in
  let r = synth_oneshot srv ~seed (Some synth) in
  if not r.ok then
    failwith (Printf.sprintf "%s_synth: record run failed (%s)" (name srv) r.before);
  Synth.synthesize synth

let profile_digest ptext = Digest.to_hex (Digest.string ptext)

let run_synth srv ~policy ~diff ~faults:_ ~seed =
  let name = name srv in
  let profile = record srv ~seed in
  let ptext = Synth.Profile.print profile in
  (match Synth.Profile.parse ptext with
  | Ok p when Synth.Profile.equal p profile -> ()
  | _ -> failwith (name ^ "_synth: synthesized profile does not round-trip"));
  let k = Kernel.create ~costs:Cost_model.free () in
  let env = srv.world ~seed k in
  let synth = Synth.create ~name (Synth.Enforce profile) in
  let run = ref { ok = false; before = ""; after = "" } in
  checked ~kernel:k ~app:(app_of srv env) ~reactor:(Reactor.create ~clock:k.Kernel.clock ())
    ~policy ~diff
    (fun oracle ->
      Oracle.add_invariant oracle ~name:("synth." ^ name ^ ".superset") (Synth.self_check synth);
      run := workload srv ~seed env (Some synth);
      if not !run.ok then
        raise
          (Oracle.Violation
             (Printf.sprintf "%s_synth: enforced run failed: %s (denials: %s)" name !run.before
                (String.concat "; " (List.map fst (Synth.denials synth))))))
    (fun () ->
      Printf.sprintf "%s_synth %s denials=%d%s profile=%s" name !run.before
        (List.length (Synth.denials synth))
        !run.after (profile_digest ptext))

type any_server = Server : 'env server -> any_server

let synth_apps = [ "httpd"; "pop3"; "sshd" ]

let synth_server = function
  | "httpd" -> Server httpd
  | "pop3" -> Server pop3
  | "sshd" -> Server sshd
  | a -> invalid_arg ("Scenarios.synth: unknown app " ^ a)

let synth_record ~app ~seed =
  let (Server srv) = synth_server app in
  record srv ~seed

let synth_rerun ~app ~seed mode =
  let (Server srv) = synth_server app in
  let synth = Synth.create ~name:app mode in
  let r = synth_oneshot srv ~seed (Some synth) in
  (r.ok, r.before, synth)

(* ------------------------------------------------------------------ *)

let scenario s_name s_doc s_run = { s_name; s_doc; s_run }

let melee srv = scenario (name srv) srv.melee_doc (run_melee srv)

(* A fresh storm serves through [serve]: the service's own serve path
   with every compartment and callgate booted fork-priced, as
   [httpd_mitm_recycle] runs them recycled. *)
let storm srv serve =
  scenario (name srv ^ "_storm")
    (name srv ^ " self-healing: fault storm + induced hangs, watchdog, booted compartments")
    (run_storm ~pooled:false { srv with service = { srv.service with Service.serve } })

let pool_storm srv =
  scenario (name srv ^ "_pool_storm")
    (name srv ^ " storm with pooled O(1) stamps, stamp faults, frozen-frame sweep")
    (run_storm ~pooled:true srv)

(* Figures 3–5's melee with every connection's compartments and
   callgates spawned under [Recycle]: connections in flight each take
   their own member of a gate name. *)
let httpd_mitm_recycle =
  let serve env c =
    Wedge_httpd.Httpd_mitm.serve_connection ~spawn:W.Recycle ~guard:c env (Guard.ep c)
  in
  scenario "httpd_mitm_recycle" "Figures 3-5 melee, compartments and callgates under Recycle"
    (run_melee { httpd_mitm with service = { httpd_mitm.service with Service.serve } })

let sharded srv =
  scenario (name srv ^ "_sharded")
    ("2-shard " ^ name srv ^ " behind the hashed front door, cross-shard gtag revocation")
    (run_sharded srv)

let synth srv =
  scenario (name srv ^ "_synth")
    ("record → synthesize → enforce a least-privilege " ^ name srv ^ " profile")
    (run_synth srv)

let all =
  [
    melee pop3;
    melee httpd;
    melee sshd;
    melee httpd_mitm;
    httpd_mitm_recycle;
    (* No storm client completes a TLS handshake, so httpd's request-size
       cap never applies. *)
    storm httpd (fun env c ->
        Wedge_httpd.Httpd_simple.serve_connection ~spawn:W.Boot ~guard:c env (Guard.ep c));
    storm pop3 (fun main c ->
        Wedge_pop3.Pop3_wedge.serve_connection ~spawn:W.Boot ~guard:c main (Guard.ep c));
    storm sshd (fun env c ->
        Wedge_sshd.Sshd_wedge.serve_connection ~spawn:W.Boot ~guard:c env (Guard.ep c));
    storm httpd_mitm (fun env c ->
        Wedge_httpd.Httpd_mitm.serve_connection ~spawn:W.Boot ~guard:c env (Guard.ep c));
    pool_storm httpd;
    pool_storm pop3;
    pool_storm sshd;
    pool_storm httpd_mitm;
    sharded httpd;
    sharded pop3;
    sharded sshd;
    sharded httpd_mitm;
    synth httpd;
    synth pop3;
    synth sshd;
    scenario "racy" "deliberate lost-update race (the explorer must catch it)" run_racy;
  ]

let find name = List.find_opt (fun s -> s.s_name = name) all
let names () = List.map (fun s -> s.s_name) all
