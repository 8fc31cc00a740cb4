(* The takeover point (Wedge.takeover): which compartment a payload lands
   in, at which kernel entry, that it fires exactly once, and that a
   point whose target never appears leaves the run as it was.  The
   attack suites (test_pop3, test_httpd, test_sshd, test_fuzz) compromise
   their servers through it. *)

module Kernel = Wedge_kernel.Kernel
module Cost_model = Wedge_sim.Cost_model
module Clock = Wedge_sim.Clock
module Stats = Wedge_sim.Stats
module Trace = Wedge_sim.Trace
module Fiber = Wedge_sim.Fiber
module Process = Wedge_kernel.Process
module Fd_table = Wedge_kernel.Fd_table
module Chan = Wedge_net.Chan
module Mitm = Wedge_net.Mitm
module Drbg = Wedge_crypto.Drbg
module Rsa = Wedge_crypto.Rsa
module Dsa = Wedge_crypto.Dsa
module W = Wedge_core.Wedge
module Httpd_env = Wedge_httpd.Httpd_env
module Sshd_env = Wedge_sshd.Sshd_env
module Pop3_env = Wedge_pop3.Pop3_env
module Pop3_client = Wedge_pop3.Pop3_client
module Ssh_client = Wedge_sshd.Ssh_client

let check = Alcotest.check

(* What a payload saw of the compartment it ran in. *)
type seen = { pid : int; uid : int; kind : Process.kind; fds : int list }

let seen ctx =
  let p = W.proc ctx in
  {
    pid = p.Process.pid;
    uid = p.Process.uid;
    kind = p.Process.kind;
    fds = Fd_table.fds p.Process.fds;
  }

let kind = Alcotest.testable (fun f k -> Format.pp_print_string f (Process.kind_to_string k)) ( = )

(* ---------- the engine's counting ---------- *)

let fresh_app () =
  let app = W.create_app (Kernel.create ~costs:Cost_model.free ()) in
  W.boot app;
  app

let probe ctx = ignore (W.vfs_read ctx "/nope")

let test_master_counts_from_arming () =
  let app = fresh_app () in
  let main = W.main_ctx app in
  probe main;
  let entry = ref 0 and fired = ref [] in
  W.takeover app ~where:W.Master ~at:3 (fun ctx ->
      fired := (!entry, W.pid ctx) :: !fired;
      (* The point is disarmed: the payload's own entries pass through. *)
      probe ctx;
      probe ctx);
  for i = 1 to 6 do
    entry := i;
    probe main
  done;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "once, at the 3rd entry after arming, in the master"
    [ (3, W.pid main) ]
    !fired

(* Neither a frozen template nor a callgate invocation is a child: the
   first child is the first sthread, and the second the forked one. *)
let test_children_in_creation_order () =
  let app = fresh_app () in
  let main = W.main_ctx app in
  let log = ref [] in
  let arm n at = W.takeover app ~where:(W.Child n) ~at (fun ctx -> log := (n, seen ctx) :: !log) in
  arm 1 2;
  arm 2 1;
  let warm ctx =
    probe ctx;
    probe ctx
  in
  let pool = W.Pool.freeze ~name:"t" ~warm main (W.sc_create ()) in
  let gate =
    W.sc_cgate_add main (W.sc_create ()) ~name:"g"
      ~entry:(fun gctx ~trusted:_ ~arg:_ ->
        probe gctx;
        probe gctx;
        0)
      ~cgsc:(W.sc_create ()) ~trusted:0
  in
  ignore (W.cgate main gate ~perms:(W.sc_create ()) ~arg:0);
  let first = ref (-1) and second = ref (-1) in
  ignore
    (W.sthread_create ~spawn:(W.Stamp pool) main (W.sc_create ())
       (fun ctx _ ->
         first := W.pid ctx;
         probe ctx;
         probe ctx;
         probe ctx;
         0)
       0);
  ignore
    (W.fork main (fun ctx ->
         second := W.pid ctx;
         probe ctx;
         0));
  match List.rev !log with
  | [ (1, s1); (2, s2) ] ->
      check Alcotest.int "Child 1 is the stamped sthread" !first s1.pid;
      check kind "an sthread" Process.Sthread s1.kind;
      check Alcotest.int "Child 2 is the forked child" !second s2.pid;
      check kind "a forked child" Process.Forked s2.kind
  | l -> Alcotest.failf "%d firings, expected Child 1 then Child 2" (List.length l)

let test_invalid_targets () =
  let app = fresh_app () in
  let refused f = match f () with () -> false | exception Invalid_argument _ -> true in
  check Alcotest.bool "at 0 refused" true
    (refused (fun () -> W.takeover app ~where:W.Master ~at:0 ignore));
  check Alcotest.bool "Child 0 refused" true
    (refused (fun () -> W.takeover app ~where:(W.Child 0) ~at:1 ignore))

(* ---------- the servers ---------- *)

(* A server under test: a fresh installation on a kernel with [costs],
   its app, how it serves one connection under a spawn variant, and the
   client script one connection runs. *)
type server = {
  name : string;
  spawns : (string * W.spawn option) list;  (* the variants it accepts *)
  worker_uid : int;
  install :
    Cost_model.t -> W.app * (W.spawn option -> Chan.ep -> unit) * (Chan.ep -> unit);
}

let partitioned = [ ("Stamp", None); ("Boot", Some W.Boot); ("Recycle", Some W.Recycle) ]

let pop3 =
  {
    name = "pop3 wedge";
    spawns = [ ("Stamp", None) ];
    worker_uid = 99;
    install =
      (fun costs ->
        let k = Kernel.create ~costs () in
        Pop3_env.install k Pop3_env.default_users;
        let app = W.create_app k in
        W.boot app;
        let main = W.main_ctx app in
        ( app,
          (fun _ ep -> Wedge_pop3.Pop3_wedge.serve_connection main ep),
          fun ep ->
            let c = Pop3_client.connect ep in
            ignore (Pop3_client.login c ~user:"alice" ~password:"wonderland");
            ignore (Pop3_client.retr c 1);
            Pop3_client.quit c ));
  }

let https name serve =
  {
    name;
    spawns = partitioned;
    worker_uid = 33;
    install =
      (fun costs ->
        let env = Httpd_env.install ~image_pages:80 (Kernel.create ~costs ()) in
        ( env.Httpd_env.app,
          (fun spawn ep -> serve ?spawn env ep),
          fun ep ->
            ignore
              (Wedge_httpd.Https_client.get ~rng:(Drbg.create ~seed:3)
                 ~pinned:env.Httpd_env.priv.Rsa.pub ~path:"/index.html" ep) ));
  }

let simple =
  https "httpd simple" (fun ?spawn env ep ->
      Wedge_httpd.Httpd_simple.serve_connection ?spawn env ep)

let mitm =
  https "httpd mitm" (fun ?spawn env ep ->
      Wedge_httpd.Httpd_mitm.serve_connection ?spawn env ep)

let sshd =
  {
    name = "sshd wedge";
    spawns = partitioned;
    worker_uid = 99;
    install =
      (fun costs ->
        let env = Sshd_env.install ~image_pages:80 (Kernel.create ~costs ()) in
        ( env.Sshd_env.app,
          (fun spawn ep -> Wedge_sshd.Sshd_wedge.serve_connection ?spawn env ep),
          fun ep ->
            match
              Ssh_client.login ~rng:(Drbg.create ~seed:5)
                ~pinned_rsa:env.Sshd_env.host_rsa.Rsa.pub
                ~pinned_dsa:env.Sshd_env.host_dsa.Dsa.pub ~user:"alice"
                (Ssh_client.Password "wonderland") ep
            with
            | Ok conn ->
                ignore (Ssh_client.exec conn "shell");
                Ssh_client.close conn
            | Error e -> Alcotest.fail e ));
  }

(* One connection through a passive man in the middle: the bytes the
   client sent and the bytes it received. *)
let connection serve client =
  let mitm = Mitm.create () in
  Fiber.run (fun () ->
      let client_ep, mitm_client = Chan.pair ~costs:Cost_model.free () in
      let mitm_server, server_ep = Chan.pair ~costs:Cost_model.free () in
      Mitm.splice mitm ~client_side:mitm_client ~server_side:mitm_server;
      Fiber.spawn (fun () -> serve server_ep);
      client client_ep;
      Chan.close client_ep);
  (Mitm.captured mitm Mitm.Client_to_server, Mitm.captured mitm Mitm.Server_to_client)

let traffic = Alcotest.(pair string string)

(* The pids of the kernel trace's instants named [name], in order. *)
let instant_pids tr name =
  let head = "{\"name\":\"" ^ name ^ "\"" and key = "\"pid\":" in
  let index_of s sub =
    let n = String.length sub in
    let rec go i = if String.sub s i n = sub then i else go (i + 1) in
    go 0
  in
  List.filter_map
    (fun line ->
      if String.starts_with ~prefix:head line then begin
        let i = index_of line key + String.length key in
        let j = ref i in
        while line.[!j] >= '0' && line.[!j] <= '9' do incr j done;
        Some (int_of_string (String.sub line i (!j - i)))
      end
      else None)
    (String.split_on_char '\n' (Trace.to_chrome_json tr))

(* On a Figures 3-5 connection the client handler is the second child:
   a takeover of [Child 2] fires once per run, in the handler — the
   second sthread the kernel stamps, uid 33 and no descriptor — at each
   of its five kernel entries, and never in the handshake sthread or a
   callgate invocation. *)
let test_one_shot_right_place () =
  let fired =
    Sweep.entries (fun at ->
        let app, serve, client = mitm.install Cost_model.free in
        let tr = (W.kernel app).Kernel.trace in
        Trace.arm tr;
        let log = ref [] in
        W.takeover app ~where:(W.Child 2) ~at (fun ctx -> log := seen ctx :: !log);
        let _, received = connection (serve None) client in
        Trace.disarm tr;
        let what s = Printf.sprintf "entry %d: %s" at s in
        check Alcotest.bool (what "the client got a reply") true (received <> "");
        match (instant_pids tr "pool.stamped", !log) with
        | [ handshake; handler ], [ s ] ->
            check Alcotest.int (what "fired in the client handler") handler s.pid;
            check Alcotest.bool (what "not in the handshake sthread") true (s.pid <> handshake);
            check kind (what "an sthread, not a callgate invocation") Process.Sthread s.kind;
            check Alcotest.int (what "the handler's uid") 33 s.uid;
            check (Alcotest.list Alcotest.int) (what "the handler holds no descriptor") [] s.fds;
            true
        | [ _; _ ], [] -> false
        | pids, l ->
            Alcotest.failf "entry %d: %d stamped sthreads, %d firings" at (List.length pids)
              (List.length l))
  in
  check Alcotest.int "the client handler's kernel entries" 5 fired

(* Every partitioned server under every spawn variant it accepts: [Child
   1] fires once, in the worker, with the worker's identity; the second
   connection the same master serves gets the bytes it gets with nothing
   armed. *)
let test_matrix () =
  List.iter
    (fun server ->
      List.iter
        (fun (label, spawn) ->
          let what s = Printf.sprintf "%s, %s: %s" server.name label s in
          let two ?arm () =
            let app, serve, client = server.install Cost_model.free in
            Option.iter (fun f -> f app) arm;
            let first = connection (serve spawn) client in
            let second = connection (serve spawn) client in
            (first, second)
          in
          let log = ref [] in
          let arm app =
            W.takeover app ~where:(W.Child 1) ~at:1 (fun ctx -> log := seen ctx :: !log)
          in
          let armed_first, armed_second = two ~arm () in
          let first, second = two () in
          (match !log with
          | [ s ] ->
              check kind (what "fired in an sthread") Process.Sthread s.kind;
              check Alcotest.int (what "with the worker's uid") server.worker_uid s.uid;
              check Alcotest.bool (what "holding the connection") true (s.fds <> [])
          | l -> Alcotest.failf "%s" (what (Printf.sprintf "%d firings" (List.length l))));
          check traffic (what "first connection's bytes") first armed_first;
          check traffic (what "second connection's bytes as unarmed") second armed_second)
        server.spawns)
    [ pop3; simple; mitm; sshd ]

(* A takeover whose target never appears changes nothing: one
   connection (at most two children) with [Child 5] armed, on Table 2's
   prices, against the same run unarmed. *)
let test_miss_changes_nothing () =
  List.iter
    (fun server ->
      let run ~armed =
        let app, serve, client = server.install Cost_model.default in
        let ran = ref false in
        if armed then W.takeover app ~where:(W.Child 5) ~at:1 (fun _ -> ran := true);
        let b = connection (serve None) client in
        let k = W.kernel app in
        (!ran, b, List.sort compare (Stats.to_list k.Kernel.stats), Clock.now k.Kernel.clock)
      in
      let ran, b, stats, now = run ~armed:true in
      let _, b0, stats0, now0 = run ~armed:false in
      let what s = server.name ^ ": " ^ s in
      check Alcotest.bool (what "never fired") false ran;
      check traffic (what "client bytes") b0 b;
      check
        (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
        (what "stats") stats0 stats;
      check Alcotest.int (what "Clock.now") now0 now)
    [ pop3; simple; mitm; sshd ]

(* ---------- containment ---------- *)

(* A compromised compartment's code may raise anything.  Two
   [Pop3_wedge] connections in one [Fiber.run], the first one's worker
   taken over at its second kernel entry (its first read of client
   input): each payload ends only that worker — faulted, counted as
   [fault.unexpected], never restarted, its connection degraded — and
   the second connection logs in. *)
let test_hostile_payloads_end_one_connection () =
  let payloads =
    [
      ("failwith", fun _ -> failwith "boom");
      ("read of a bad fd", fun ctx -> ignore (W.fd_read ctx 77 1));
      ("unknown callgate", fun ctx -> ignore (W.cgate ctx 12345 ~perms:(W.sc_create ()) ~arg:0));
      ("write to a bad fd", fun ctx -> ignore (W.fd_write ctx 77 (Bytes.of_string "x")));
      ( "non-root set_identity",
        fun ctx -> W.set_identity ctx ~target_pid:(W.pid ctx) ~uid:0 ~root:"/" () );
    ]
  in
  List.iter
    (fun (name, payload) ->
      let what s = name ^ ": " ^ s in
      let k = Kernel.create ~costs:Cost_model.free () in
      Pop3_env.install k Pop3_env.default_users;
      let app = W.create_app k in
      W.boot app;
      let main = W.main_ctx app in
      let ran = ref false in
      W.takeover app ~where:(W.Child 1) ~at:2 (fun ctx ->
          ran := true;
          payload ctx);
      let returned = ref 0 and logged_in = ref [] in
      Fiber.run (fun () ->
          for _ = 1 to 2 do
            let client_ep, server_ep = Chan.pair ~costs:Cost_model.free () in
            Fiber.spawn (fun () ->
                Wedge_pop3.Pop3_wedge.serve_connection main server_ep;
                incr returned);
            let c = Pop3_client.connect client_ep in
            logged_in := Pop3_client.login c ~user:"alice" ~password:"wonderland" :: !logged_in;
            Chan.close client_ep
          done);
      check Alcotest.bool (what "the payload ran") true !ran;
      check Alcotest.int (what "both connections returned") 2 !returned;
      check (Alcotest.list Alcotest.bool) (what "the first refused, the second logs in")
        [ false; true ] (List.rev !logged_in);
      check Alcotest.int (what "its worker faulted") 1
        (Stats.get k.Kernel.stats "fault.compartment");
      check Alcotest.int (what "the image's freeze and one handler a connection, none restarted")
        3
        (Stats.get k.Kernel.stats "trap.sthread_create");
      check Alcotest.int (what "the faulted connection degraded") 1
        (Stats.get k.Kernel.stats "pop3.degraded");
      check Alcotest.int (what "one unexpected fault") 1
        (Stats.get k.Kernel.stats "fault.unexpected"))
    payloads

(* A fault ends its session without putting it out of step.  One
   [Pop3_wedge] connection whose client sends USER, PASS, STAT and
   RETR 1 one at a time, reading each reply whole (a line, or a RETR
   body through its terminator) or up to EOF, then closes its side and
   reads to EOF.  Returns every byte it read and the offsets in them at
   which a reply ended, 0 included. *)
let pop3_session ~password ?arm () =
  let k = Kernel.create ~costs:Cost_model.free () in
  Pop3_env.install k Pop3_env.default_users;
  let app = W.create_app k in
  W.boot app;
  Option.iter (fun f -> f app) arm;
  let main = W.main_ctx app in
  let got = Buffer.create 256 and ends = ref [ 0 ] in
  Fiber.run (fun () ->
      let client_ep, server_ep = Chan.pair ~costs:Cost_model.free () in
      Fiber.spawn (fun () -> Wedge_pop3.Pop3_wedge.serve_connection main server_ep);
      (* False at EOF before the reply is whole. *)
      let rec read_reply ~body start =
        let reply = Buffer.sub got start (Buffer.length got - start) in
        let octets () =
          match String.index_opt reply '\r' with
          | Some i -> String.ends_with ~suffix:" octets" (String.sub reply 0 i)
          | None -> false
        in
        let whole =
          if body && octets () then String.ends_with ~suffix:"\r\n.\r\n" reply
          else String.ends_with ~suffix:"\r\n" reply
        in
        if whole then begin
          ends := Buffer.length got :: !ends;
          true
        end
        else
          let b = Chan.read client_ep 65536 in
          Bytes.length b > 0
          && begin
            Buffer.add_bytes got b;
            read_reply ~body start
          end
      in
      let rec send = function
        | [] -> ()
        | (line, body) :: rest ->
            Chan.write_string client_ep (line ^ "\r\n");
            if read_reply ~body (Buffer.length got) then send rest
      in
      if read_reply ~body:false 0 then
        send
          [
            ("USER alice", false);
            ("PASS " ^ password, false);
            ("STAT", false);
            ("RETR 1", true);
          ];
      Chan.close client_ep;
      let rec drain () =
        let b = Chan.read client_ep 65536 in
        if Bytes.length b > 0 then begin
          Buffer.add_bytes got b;
          drain ()
        end
      in
      drain ());
  (Buffer.contents got, List.rev !ends)

(* For the right and a wrong password, a [failwith] at every kernel
   entry of the connection's handler: each session reads either the
   whole unarmed transcript, or a prefix of it that ends where a reply
   ended, then pop3's degraded farewell and EOF — never a reply to
   another command, or a greeting from a second handler. *)
let test_fault_keeps_session_in_step () =
  let degraded = "-ERR internal server error, closing\r\n" in
  List.iter
    (fun (name, password, pass_reply) ->
      let whole, ends = pop3_session ~password () in
      let reply i = String.sub whole (List.nth ends i) (List.nth ends (i + 1) - List.nth ends i) in
      check Alcotest.string (name ^ ": the unarmed PASS reply") pass_reply (reply 2);
      let out_of_step = ref [] in
      let fired =
        Sweep.entries (fun at ->
            let ran = ref false in
            let armed, _ =
              pop3_session ~password
                ~arm:(Sweep.arm ~where:(W.Child 1) ~at ran (fun _ -> failwith "boom"))
                ()
            in
            let in_step =
              armed = whole
              || List.exists (fun e -> armed = String.sub whole 0 e ^ degraded) ends
            in
            if !ran && not in_step then out_of_step := at :: !out_of_step;
            !ran)
      in
      check Alcotest.int (name ^ ": the handler's kernel entries") 13 fired;
      check (Alcotest.list Alcotest.int) (name ^ ": entries whose session went out of step") []
        (List.rev !out_of_step))
    [
      ("right password", "wonderland", "+OK logged in\r\n");
      ("wrong password", "wonderlant", "-ERR auth failed\r\n");
    ]

let () =
  Alcotest.run "wedge_takeover"
    [
      ( "engine",
        [
          Alcotest.test_case "master counts from arming" `Quick test_master_counts_from_arming;
          Alcotest.test_case "children in creation order" `Quick test_children_in_creation_order;
          Alcotest.test_case "invalid targets refused" `Quick test_invalid_targets;
        ] );
      ( "servers",
        [
          Alcotest.test_case "one shot, right place" `Quick test_one_shot_right_place;
          Alcotest.test_case "matrix" `Quick test_matrix;
          Alcotest.test_case "a miss changes nothing" `Quick test_miss_changes_nothing;
        ] );
      ( "containment",
        [
          Alcotest.test_case "hostile payloads end one connection" `Quick
            test_hostile_payloads_end_one_connection;
          Alcotest.test_case "a fault keeps its session in step" `Quick
            test_fault_keeps_session_in_step;
        ] );
    ]
