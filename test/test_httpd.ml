(* Apache/OpenSSL stand-in tests: functional equivalence of the three
   layouts (monolithic, Figure 2 "simple", Figures 3-5 "mitm"), session
   caching, recycled callgates, and the paper's attack experiments —
   private-key disclosure, session-key influence, and the man-in-the-middle
   + exploit combination that succeeds against the simple partitioning and
   fails against the fine-grained one. *)

module Kernel = Wedge_kernel.Kernel
module Cost_model = Wedge_sim.Cost_model
module Fiber = Wedge_sim.Fiber
module Chan = Wedge_net.Chan
module Mitm = Wedge_net.Mitm
module Attacker = Wedge_net.Attacker
module Tag = Wedge_mem.Tag
module Drbg = Wedge_crypto.Drbg
module Rsa = Wedge_crypto.Rsa
module Wire = Wedge_tls.Wire
module Record = Wedge_tls.Record
module W = Wedge_core.Wedge
module Env = Wedge_httpd.Httpd_env
module Mono = Wedge_httpd.Httpd_mono
module Simple = Wedge_httpd.Httpd_simple
module Mitm_httpd = Wedge_httpd.Httpd_mitm
module Client = Wedge_httpd.Https_client
module Http = Wedge_httpd.Http
module Service = Wedge_net.Service
module Stats = Wedge_sim.Stats
module Guard = Wedge_net.Guard
module Oracle = Wedge_check.Oracle
module Handshake = Wedge_tls.Handshake
module Engine = Wedge_core.Engine

let check = Alcotest.check

(* Small image: tests exercise semantics, not Table 2 costs. *)
let mk_env ?(session_cache = true) () =
  let k = Kernel.create ~costs:Cost_model.free () in
  Env.install ~image_pages:80 ~session_cache k

type variant = VMono | VSimple | VMitm

let serve ?spawn variant env ep =
  match variant with
  | VMono -> Mono.serve_connection env ep
  | VSimple -> Simple.serve_connection ?spawn env ep
  | VMitm -> Mitm_httpd.serve_connection ?spawn env ep

let fetch ?resume ?(seed = 7) ?(path = "/index.html") env variant ?spawn () =
  let result = ref None in
  Fiber.run (fun () ->
      let client_ep, server_ep = Chan.pair ~costs:Cost_model.free () in
      Fiber.spawn (fun () -> serve ?spawn variant env server_ep);
      let rng = Drbg.create ~seed in
      result :=
        Some (Client.get ?resume ~rng ~pinned:env.Env.priv.Rsa.pub ~path client_ep));
  Option.get !result

(* ---------- functional ---------- *)

let body_of (r : Client.result) =
  match r.Client.response with Some { Http.status = 200; body } -> Some body | _ -> None

let test_serves_index variant () =
  let env = mk_env () in
  let r = fetch env variant () in
  check (Alcotest.option Alcotest.string) "index body" (Some Env.index_body) (body_of r);
  check Alcotest.int "served counter" 1 env.Env.served

let test_404 variant () =
  let env = mk_env () in
  let r = fetch env variant ~path:"/nope.html" () in
  match r.Client.response with
  | Some { Http.status = 404; _ } -> ()
  | _ -> Alcotest.fail "expected 404"

let test_resumption variant () =
  let env = mk_env () in
  let r1 = fetch env variant ~seed:1 () in
  check Alcotest.bool "first is full" false r1.Client.resumed;
  let r2 = fetch ?resume:r1.Client.session env variant ~seed:2 () in
  check Alcotest.bool "second resumed" true r2.Client.resumed;
  check (Alcotest.option Alcotest.string) "resumed body" (Some Env.index_body) (body_of r2)

let test_cache_disabled variant () =
  let env = mk_env ~session_cache:false () in
  let r1 = fetch env variant ~seed:1 () in
  let r2 = fetch ?resume:r1.Client.session env variant ~seed:2 () in
  check Alcotest.bool "never resumed" false r2.Client.resumed;
  check Alcotest.bool "still serves" true (body_of r2 <> None)

let test_recycled_variant variant () =
  let env = mk_env () in
  let r1 = fetch env variant ~spawn:W.Recycle ~seed:1 () in
  let r2 = fetch ?resume:r1.Client.session env variant ~spawn:W.Recycle ~seed:2 () in
  check Alcotest.bool "recycled serves" true (body_of r1 <> None && body_of r2 <> None);
  check Alcotest.bool "recycled resumed" true r2.Client.resumed

(* Four connections in flight under [Recycle], on Table 2's prices:
   SSL_read parks in [fd_read] inside its member, so another
   connection's SSL_read must take a member of its own, never remap the
   parked one.  Over 60 random schedules every client fetches the
   index, nothing escapes the run, and no gate name ends with more
   members than calls it ever had in flight. *)
let test_recycled_members_concurrent () =
  for s = 1 to 60 do
    let env = Env.install ~image_pages:80 (Kernel.create ~costs:Cost_model.default ()) in
    let served = ref 0 in
    (match
       Fiber.run ~policy:(Fiber.Random s) (fun () ->
           for i = 1 to 4 do
             let client_ep, server_ep = Chan.pair ~costs:Cost_model.default () in
             Fiber.spawn (fun () ->
                 Mitm_httpd.serve_connection ~spawn:W.Recycle env server_ep);
             Fiber.spawn (fun () ->
                 let rng = Drbg.create ~seed:i in
                 let pinned = env.Env.priv.Rsa.pub in
                 let r = Client.get ~rng ~pinned ~path:"/index.html" client_ep in
                 if body_of r = Some Env.index_body then incr served)
           done)
     with
    | () -> ()
    | exception e -> Alcotest.failf "schedule %d: %s escaped the run" s (Printexc.to_string e));
    check Alcotest.int (Printf.sprintf "schedule %d: every client served" s) 4 !served;
    Hashtbl.iter
      (fun name members ->
        if List.length members > 4 then
          Alcotest.failf "schedule %d: gate %s ends with %d members" s name (List.length members))
      env.Env.app.Engine.recycled_pool
  done

(* ---------- attack: private-key disclosure ---------- *)

(* The payload tries to read the private-key tag and the host shadow file
   with whatever privileges the exploited compartment has. *)
let key_thief env loot ctx =
  (match Attacker.try_read ctx ~addr:env.Env.key_addr ~len:64 with
  | Ok data -> Attacker.grab loot ~label:"privkey" data
  | Error _ -> ());
  match W.vfs_read ctx "/etc/shadow" with
  | Ok data -> Attacker.grab loot ~label:"shadow" data
  | Error _ -> ()

(* The master holds the key from its first kernel entry, the read of
   the ClientHello, so the payload takes over there. *)
let test_mono_exploit_discloses_key () =
  let env = mk_env () in
  let loot = Attacker.loot_create () in
  let ran = ref false in
  Sweep.arm ~where:W.Master ~at:1 ran (key_thief env loot) env.Env.app;
  ignore (fetch env VMono ());
  check Alcotest.bool "payload ran" true !ran;
  check Alcotest.bool "private key read" true (Attacker.stolen loot ~label:"privkey" <> None);
  check Alcotest.bool "shadow read" true (Attacker.stolen loot ~label:"shadow" <> None)

(* Swept over every kernel entry of each network-facing compartment: the
   Figure 2 worker, and the Figures 3-5 handshake sthread (the
   connection's first child) and client handler (its second). *)
let test_partitioned_exploit_cannot_reach_key variant () =
  let children = match variant with VMitm -> [ 1; 2 ] | VMono | VSimple -> [ 1 ] in
  List.iter
    (fun n ->
      let fired =
        Sweep.entries (fun at ->
            let env = mk_env () in
            let loot = Attacker.loot_create () in
            let ran = ref false in
            Sweep.arm ~where:(W.Child n) ~at ran (key_thief env loot) env.Env.app;
            ignore (fetch env variant ());
            check Alcotest.int
              (Printf.sprintf "child %d, entry %d: nothing reachable" n at)
              0 (Attacker.count loot);
            !ran)
      in
      check Alcotest.bool (Printf.sprintf "child %d: payload ran" n) true (fired > 0))
    children

(* ---------- attack: session-key influence (§5.1.1) ---------- *)

let test_server_random_not_caller_controlled () =
  (* Replay attack surface (§5.1.1): an attacker replays the exact client
     inputs of an eavesdropped connection (identical client random and
     premaster, via an identical client RNG seed).  Because the callgate
     generates the server random itself — the handshake driver has no
     input for it — the derived session keys still differ. *)
  let env = mk_env ~session_cache:false () in
  let r1 = fetch env VSimple ~seed:42 () in
  let r2 = fetch env VSimple ~seed:42 () in
  (match (r1.Client.session, r2.Client.session) with
  | Some s1, Some s2 ->
      (* The replay really was byte-identical on the client side... *)
      check Alcotest.bool "identical client inputs" true
        (Bytes.equal s1.Wedge_tls.Handshake.cs_master s2.Wedge_tls.Handshake.cs_master)
  | _ -> Alcotest.fail "handshakes failed");
  (* ...yet the per-connection record keys differ: the server's random
     contribution, generated inside the callgate, made them fresh. *)
  check Alcotest.bool "replay yields different session keys" false
    (String.equal r1.Client.keys_fingerprint r2.Client.keys_fingerprint)

(* ---------- attack: MITM + exploit (§5.1.2) ---------- *)

(* Full scenario: a passive man-in-the-middle forwards the handshake of a
   legitimate client while an exploit runs inside the server's
   network-facing compartment.  On the simple partitioning the worker holds
   the session key in memory it can read (the callgate returned it), so the
   exploit leaks it and the attacker decrypts the captured traffic.  On the
   fine-grained partitioning the handshake sthread holds nothing. *)

(* The payload takes over the network-facing compartment, the
   connection's first child, at its [at]-th kernel entry. *)
let mitm_attack variant ~at ~leak_probe =
  let env = mk_env () in
  let mitm = Mitm.create () in
  let loot = Attacker.loot_create () in
  let ran = ref false in
  Sweep.arm ~where:(W.Child 1) ~at ran (leak_probe env loot) env.Env.app;
  let response = ref None in
  Fiber.run (fun () ->
      let client_ep, mitm_client = Chan.pair ~costs:Cost_model.free () in
      let mitm_server, server_ep = Chan.pair ~costs:Cost_model.free () in
      Mitm.splice mitm ~client_side:mitm_client ~server_side:mitm_server;
      Fiber.spawn (fun () -> serve variant env server_ep);
      let rng = Drbg.create ~seed:9 in
      let r = Client.get ~rng ~pinned:env.Env.priv.Rsa.pub ~path:"/index.html" client_ep in
      response := Some r);
  (!ran, loot, Mitm.captured mitm Mitm.Server_to_client, Option.get !response)

(* On the simple partition the worker can read the argument buffer where
   setup_session_key returned master+keys; Figure 2's residual weakness. *)
let simple_leak env loot ctx =
  ignore env;
  let tags = W.live_tags (W.app_of ctx) in
  List.iter
    (fun (tag : Tag.t) ->
      ignore (Attacker.steal_tag ctx loot ~label:("tag:" ^ tag.Tag.name) tag))
    tags

let decrypt_capture ~keys_state capture =
  (* Offline decryption of captured server->client records using the leaked
     server record state (swap tx/rx halves to act as receiver), replaying
     every sealed record — including the server Finished — in order so the
     stream cipher and sequence numbers line up. *)
  let b = keys_state in
  let swapped =
    Record.of_bytes
      (Bytes.concat Bytes.empty
         [
           Bytes.sub b 32 32;
           Bytes.sub b 0 32;
           Bytes.sub b (64 + 258) 258;
           Bytes.sub b 64 258;
           Bytes.sub b (64 + 524) 8;
           Bytes.sub b (64 + 516) 8;
         ])
  in
  Wire.parse_frames capture
  |> List.filter_map (fun (t, record) ->
         if t = Wire.App_data || t = Wire.Finished then
           match Record.open_ swapped record with
           | Some pt when t = Wire.App_data -> Some pt
           | _ -> None
         else None)

let find_keys_in_loot loot =
  (* Scan stolen memory for a plausible serialised Record.keys blob: the
     simple-partition argument buffer holds it as an lv block at offset 34
     of the op-2 reply. *)
  let candidates = ref [] in
  List.iter
    (fun label ->
      match Attacker.stolen loot ~label with
      | Some data ->
          let n = String.length data in
          let rec scan i =
            if i + 4 + Record.state_size <= n then begin
              let len =
                Char.code data.[i]
                lor (Char.code data.[i + 1] lsl 8)
                lor (Char.code data.[i + 2] lsl 16)
                lor (Char.code data.[i + 3] lsl 24)
              in
              if len = Record.state_size then
                candidates := Bytes.of_string (String.sub data (i + 4) len) :: !candidates;
              scan (i + 1)
            end
          in
          scan 0
      | None -> ())
    (Attacker.labels loot);
  !candidates

(* Entry 9: the Figure 2 worker's 8th entry is the setup_session_key
   callgate that returns the session key into its argument block, so the
   9th (the read of the client Finished) is the first at which the key
   is there to leak. *)
let test_mitm_succeeds_on_simple_partition () =
  let ran, loot, capture, response = mitm_attack VSimple ~at:9 ~leak_probe:simple_leak in
  check Alcotest.bool "payload ran" true ran;
  (* The legitimate client completed (the MITM was passive)... *)
  check Alcotest.bool "client completed" true (response.Client.response <> None);
  (* ...but the exploited worker leaked tag memory containing the record
     keys, and the attacker decrypts the captured response. *)
  let candidates = find_keys_in_loot loot in
  check Alcotest.bool "record keys found in leaked memory" true (candidates <> []);
  let plaintexts =
    List.concat_map (fun ks -> decrypt_capture ~keys_state:ks capture) candidates
  in
  check Alcotest.bool "captured HTTPS response decrypted" true
    (List.exists
       (fun pt ->
         let s = Bytes.to_string pt in
         String.length s >= 8 && String.sub s 0 8 = "HTTP/1.0")
       plaintexts)

(* Swept over every kernel entry of the handshake sthread. *)
let test_mitm_fails_on_fine_partition () =
  let fired =
    Sweep.entries (fun at ->
        let ran, loot, capture, response = mitm_attack VMitm ~at ~leak_probe:simple_leak in
        let at_entry what = Printf.sprintf "entry %d: %s" at what in
        check Alcotest.bool (at_entry "client completed despite exploit") true
          (response.Client.response <> None);
        (match response.Client.response with
        | Some { Http.status = 200; body } ->
            check Alcotest.string (at_entry "body intact") Env.index_body body
        | _ -> Alcotest.fail (at_entry "expected 200"));
        (* The handshake sthread could only leak what it can read: no key
           state anywhere in it. *)
        let candidates = find_keys_in_loot loot in
        let plaintexts =
          List.concat_map (fun ks -> decrypt_capture ~keys_state:ks capture) candidates
        in
        check Alcotest.bool (at_entry "capture not decryptable") true (plaintexts = []);
        (* And the session-key / finished-state / key tags were all
           unreadable: the loot only ever contains the argument buffer. *)
        List.iter
          (fun label ->
            check Alcotest.bool (at_entry ("leaked " ^ label ^ " allowed")) true
              (label = "tag:httpd.arg" || label = "tag:pristine"))
          (Attacker.labels loot);
        ran)
  in
  check Alcotest.bool "payload ran" true (fired > 0)

(* Figure 3's rule: the master starts the client handler only after a
   clean handshake exit.  A handshake that exits nonzero neither faults
   nor degrades the connection, and it is the only compartment
   stamped. *)
let test_handler_not_started_after_bad_handshake () =
  let env = mk_env () in
  let returned = ref false in
  Fiber.run (fun () ->
      let client_ep, server_ep = Chan.pair ~costs:Cost_model.free () in
      Fiber.spawn (fun () ->
          Mitm_httpd.serve_connection env server_ep;
          returned := true);
      (* Speak garbage instead of SSL. *)
      Chan.write_string client_ep "GET / HTTP/1.0\r\n\r\n";
      Chan.close client_ep);
  let stat = Stats.get (W.kernel env.Env.app).Kernel.stats in
  check Alcotest.bool "serve_connection returned" true !returned;
  check Alcotest.int "handshake exited, undegraded" 0
    (stat "httpd_mitm.degraded" + stat "fault.compartment");
  check Alcotest.int "handler never started" 1 (stat "pool.stamp")

let test_client_handler_has_no_network () =
  (* Exploit in the client handler, the connection's second child, at
     each of its kernel entries: it cannot find any usable descriptor —
     its only paths to the network are the SSL callgates. *)
  let fired =
    Sweep.entries (fun at ->
        let env = mk_env () in
        let outcome = ref `Untried in
        let ran = ref false in
        Sweep.arm ~where:(W.Child 2) ~at ran
          (fun ctx ->
            let probes =
              List.map
                (fun fd ->
                  match W.fd_read ctx fd 1 with
                  | _ -> true
                  | exception W.Fd_error _ -> false
                  | exception _ -> false)
                [ 3; 4; 5; 6 ]
            in
            outcome := if List.exists Fun.id probes then `Has_fd else `No_fd)
          env.Env.app;
        ignore (fetch env VMitm ());
        if !ran then
          check Alcotest.bool
            (Printf.sprintf "entry %d: no readable descriptors" at)
            true (!outcome = `No_fd);
        !ran)
  in
  check Alcotest.bool "payload ran" true (fired > 0)

let test_injection_during_data_phase_dropped () =
  let env = mk_env () in
  let response = ref None in
  Fiber.run (fun () ->
      let client_ep, mitm_client = Chan.pair ~costs:Cost_model.free () in
      let mitm_server, server_ep = Chan.pair ~costs:Cost_model.free () in
      let mitm = Mitm.create () in
      Mitm.splice mitm ~client_side:mitm_client ~server_side:mitm_server;
      Fiber.spawn (fun () -> Mitm_httpd.serve_connection env server_ep);
      let rng = Drbg.create ~seed:11 in
      let io =
        Wire.io_of_fns
          ~recv:(fun n ->
            let b = Chan.read client_ep n in
            if Bytes.length b = 0 then None else Some b)
          ~send:(fun b -> Chan.write client_ep b)
      in
      match Wedge_tls.Handshake.client_connect ~rng ~pinned:env.Env.priv.Rsa.pub io with
      | Error e -> Alcotest.fail e
      | Ok res ->
          (* Attacker injects a forged record ahead of the real request. *)
          Chan.write mitm_server
            (Wire.frame Wire.App_data (Bytes.make 64 'Z'));
          Fiber.yield ();
          Wedge_tls.Handshake.send_data io res.Wedge_tls.Handshake.cr_keys
            (Bytes.of_string "GET /index.html");
          (* the response arrives as header + body records *)
          let buf = Buffer.create 512 in
          (match Wedge_tls.Handshake.recv_data io res.Wedge_tls.Handshake.cr_keys with
          | Ok r1 -> (
              Buffer.add_bytes buf r1;
              match Wedge_tls.Handshake.recv_data io res.Wedge_tls.Handshake.cr_keys with
              | Ok r2 ->
                  Buffer.add_bytes buf r2;
                  response := Http.parse_response (Buffer.contents buf)
              | Error _ -> ())
          | Error _ -> ());
          Chan.close client_ep);
  match !response with
  | Some { Http.status = 200; body } ->
      check Alcotest.string "served correct page despite injection" Env.index_body body
  | _ -> Alcotest.fail "request not served"

(* ---------- session cache in tagged memory ---------- *)

let test_sess_store_semantics () =
  let k = Kernel.create ~costs:Cost_model.free () in
  let app = W.create_app k in
  W.boot app;
  let main = W.main_ctx app in
  let module S = Wedge_httpd.Sess_store in
  let s = S.create main in
  let m n = Bytes.make 32 (Char.chr n) in
  S.store main s ~sid:"aaaa" ~master:(m 1);
  S.store main s ~sid:"bbbb" ~master:(m 2);
  check Alcotest.bool "lookup hit" true (S.lookup main s ~sid:"aaaa" = Some (m 1));
  check Alcotest.bool "lookup miss" true (S.lookup main s ~sid:"zzzz" = None);
  (* update in place *)
  S.store main s ~sid:"aaaa" ~master:(m 9);
  check Alcotest.bool "updated" true (S.lookup main s ~sid:"aaaa" = Some (m 9));
  (* 62 more fill the 64 slots: the update took no slot of its own. *)
  let sid i = Printf.sprintf "sid%03d" i in
  for i = 1 to 62 do
    S.store main s ~sid:(sid i) ~master:(m 3)
  done;
  check Alcotest.bool "64 held, update took no slot" true
    (S.lookup main s ~sid:"aaaa" = Some (m 9) && S.lookup main s ~sid:(sid 62) <> None);
  (* FIFO eviction past capacity: the 65th session takes the oldest slot. *)
  S.store main s ~sid:"dddd" ~master:(m 4);
  check Alcotest.bool "65th stored" true (S.lookup main s ~sid:"dddd" <> None);
  check Alcotest.bool "evicted oldest slot" true (S.lookup main s ~sid:"aaaa" = None);
  check Alcotest.bool "next oldest kept" true (S.lookup main s ~sid:"bbbb" = Some (m 2));
  let off = S.create ~enabled:false main in
  S.store main off ~sid:"eeee" ~master:(m 5);
  check Alcotest.bool "disabled" true (S.lookup main off ~sid:"eeee" = None)

let test_session_cache_tag_unreadable_by_compartments () =
  (* The cached master secrets live in tagged memory granted only to the
     session callgates: both network-facing sthreads are denied.  One
     resumed connection arms both of them, each at every one of its
     kernel entries in turn. *)
  let env = mk_env () in
  let r1 = fetch env VMitm ~seed:1 () in
  let probe target = fun ctx ->
    let tag = Wedge_httpd.Sess_store.tag env.Env.scache in
    target :=
      (match Attacker.try_read ctx ~addr:tag.Tag.base ~len:8 with
      | Ok _ -> `Read
      | Error _ -> `Denied)
  in
  let hs_fired = ref 0 and ch_fired = ref 0 in
  ignore
    (Sweep.entries (fun at ->
        let verdict_hs = ref `Untried and verdict_ch = ref `Untried in
        let ran_hs = ref false and ran_ch = ref false in
        Sweep.arm ~where:(W.Child 1) ~at ran_hs (probe verdict_hs) env.Env.app;
        Sweep.arm ~where:(W.Child 2) ~at ran_ch (probe verdict_ch) env.Env.app;
        let r2 = fetch ?resume:r1.Client.session env VMitm ~seed:2 () in
        let at_entry what = Printf.sprintf "entry %d: %s" at what in
        check Alcotest.bool (at_entry "resumed through the tagged cache") true r2.Client.resumed;
        if !ran_hs then begin
          incr hs_fired;
          check Alcotest.bool (at_entry "handshake sthread denied") true (!verdict_hs = `Denied)
        end;
        if !ran_ch then begin
          incr ch_fired;
          check Alcotest.bool (at_entry "client handler denied") true (!verdict_ch = `Denied)
        end;
        !ran_hs || !ran_ch));
  check Alcotest.bool "handshake payload ran" true (!hs_fired > 0);
  check Alcotest.bool "client handler payload ran" true (!ch_fired > 0)

(* ---------- strict SELinux (extension of §3.1's syscall policies) ---------- *)

let test_strict_selinux_still_serves () =
  let k = Kernel.create ~costs:Cost_model.free () in
  let env = Env.install ~image_pages:80 ~strict_selinux:true k in
  let result = ref None in
  Fiber.run (fun () ->
      let client_ep, server_ep = Chan.pair ~costs:Cost_model.free () in
      Fiber.spawn (fun () -> Mitm_httpd.serve_connection env server_ep);
      let rng = Drbg.create ~seed:21 in
      result := Some (Client.get ~rng ~pinned:env.Env.priv.Rsa.pub ~path:"/index.html" client_ep));
  match (Option.get !result).Client.response with
  | Some { Http.status = 200; body } -> check Alcotest.string "served" Env.index_body body
  | _ -> Alcotest.fail "strict policy broke the server"

let test_strict_selinux_denies_offpolicy_syscalls () =
  (* Under the strict policy an exploited worker cannot even create tags or
     spawn sthreads: the SELinux domain only grants read/write/open/cgate.
     The handshake sthread is taken over at each of its kernel entries. *)
  let fired =
    Sweep.entries (fun at ->
        let k = Kernel.create ~costs:Cost_model.free () in
        let env = Env.install ~image_pages:80 ~strict_selinux:true k in
        let verdicts = ref [] in
        let ran = ref false in
        Sweep.arm ~where:(W.Child 1) ~at ran
          (fun ctx ->
            let try_ name f =
              verdicts :=
                (name, match f () with _ -> `Allowed | exception Wedge_kernel.Kernel.Eperm _ -> `Denied)
                :: !verdicts
            in
            try_ "tag_new" (fun () -> ignore (W.tag_new ctx));
            try_ "fork" (fun () -> ignore (W.fork ctx (fun _ -> 0)));
            try_ "sthread_create" (fun () ->
                ignore (W.sthread_create ctx (W.sc_create ()) (fun _ _ -> 0) 0)))
          env.Env.app;
        Fiber.run (fun () ->
            let client_ep, server_ep = Chan.pair ~costs:Cost_model.free () in
            Fiber.spawn (fun () -> Mitm_httpd.serve_connection env server_ep);
            let rng = Drbg.create ~seed:22 in
            ignore (Client.get ~rng ~pinned:env.Env.priv.Rsa.pub ~path:"/index.html" client_ep));
        List.iter
          (fun (name, verdict) ->
            check Alcotest.bool
              (Printf.sprintf "entry %d: %s denied by SELinux" at name)
              true (verdict = `Denied))
          !verdicts;
        if !ran then
          check Alcotest.int (Printf.sprintf "entry %d: three probes ran" at) 3
            (List.length !verdicts);
        !ran)
  in
  check Alcotest.bool "payload ran" true (fired > 0)

(* ---------- client-sized fields against fixed blocks ---------- *)

let wire ep =
  Wire.io_of_fns
    ~recv:(fun n ->
      let b = Chan.read ep n in
      if Bytes.length b = 0 then None else Some b)
    ~send:(fun b -> Chan.write ep b)

(* What the client saw once the server stopped answering: a hang-up, or
   every record it sent, opened and concatenated. *)
let rest io keys =
  let buf = Buffer.create 256 in
  let rec go () =
    match Handshake.recv_data io keys with
    | Ok b ->
        Buffer.add_bytes buf b;
        go ()
    | Error _ -> ()
  in
  go ();
  if Buffer.length buf = 0 then "closed"
  else
    match Http.parse_response (Buffer.contents buf) with
    | Some { Http.status; body } -> Printf.sprintf "HTTP %d, %d bytes" status (String.length body)
    | None -> "garbled"

let hung_up io = match Wire.recv_msg io with _ -> "answered" | exception Wire.Closed -> "closed"

(* A ClientHello without a session id; the server answers with its
   hello and certificate. *)
let hello io =
  Wire.send_msg io Wire.Client_hello (Bytes.cat (Bytes.make 32 'r') (Bytes.make 1 '\000'));
  ignore (Wire.recv_msg io);
  ignore (Wire.recv_msg io)

let key_exchange size _env ep =
  let io = wire ep in
  hello io;
  Wire.send_msg io Wire.Client_key_exchange (Bytes.make size 'k');
  hung_up io

(* A valid key exchange, then a client Finished of [size] junk bytes. *)
let finished size env ep =
  let io = wire ep in
  let rng = Drbg.create ~seed:5 in
  hello io;
  let premaster = Drbg.bytes rng Handshake.premaster_len in
  Wire.send_msg io Wire.Client_key_exchange (Rsa.encrypt rng env.Env.priv.Rsa.pub premaster);
  Wire.send_msg io Wire.Finished (Bytes.make size 'f');
  hung_up io

(* A full handshake, then a [size]-byte GET of the index page. *)
let request size env ep =
  let io = wire ep in
  match Handshake.client_connect ~rng:(Drbg.create ~seed:6) ~pinned:env.Env.priv.Rsa.pub io with
  | Error e -> "handshake failed: " ^ e
  | Ok res ->
      let keys = res.Handshake.cr_keys in
      let line = "GET /index.html " in
      Handshake.send_data io keys
        (Bytes.of_string (line ^ String.make (size - String.length line) 'x'));
      rest io keys

(* Each field the client sizes is written into a fixed block only when it
   fits: the ClientKeyExchange (length-prefixed at +1 of the 4096-byte
   argument block), the client Finished (at +33) and the decrypted
   request (at +0 of Figures 3-5's 20,000-byte data block).  Each row's
   first size is the largest that fits and behaves as it always did;
   larger ones are refused with the protocol's own failure — the
   handshake or SSL_read fails — instead of corrupting the next smalloc
   chunk, which the oracle, armed at every syscall, would catch. *)
let field_rows =
  [
    ( "ClientKeyExchange",
      [ VSimple; VMitm ],
      key_exchange,
      [ (4_091, "closed"); (4_200, "closed") ] );
    ("client Finished", [ VMitm ], finished, [ (4_059, "closed"); (4_100, "closed") ]);
    ( "request",
      [ VMitm ],
      request,
      [ (19_996, Printf.sprintf "HTTP 200, %d bytes" (String.length Env.index_body));
        (20_100, "closed");
        (25_000, "closed") ] );
  ]

let serve_partitioned variant env ep =
  match variant with
  | VSimple -> Simple.serve_connection env ep
  | VMitm -> Mitm_httpd.serve_connection env ep
  | VMono -> invalid_arg "serve_partitioned: monolithic"

let degraded_key = function
  | VSimple -> "httpd.degraded"
  | VMitm -> "httpd_mitm.degraded"
  | VMono -> invalid_arg "degraded_key: monolithic"

let test_client_sized_fields () =
  List.iter
    (fun (field, variants, client, sizes) ->
      List.iter
        (fun variant ->
          List.iter
            (fun (size, seen) ->
              let what =
                Printf.sprintf "%s, %d bytes (%s)" field size
                  (if variant = VSimple then "simple" else "mitm")
              in
              let env = mk_env () in
              let oracle = Oracle.create (W.kernel env.Env.app) in
              Oracle.set_app oracle env.Env.app;
              Oracle.install_syscall_hook oracle;
              let returned = ref false and saw = ref "" in
              Fun.protect
                ~finally:(fun () -> Oracle.remove_syscall_hook oracle)
                (fun () ->
                  Fiber.run (fun () ->
                      let client_ep, server_ep = Chan.pair ~costs:Cost_model.free () in
                      Fiber.spawn (fun () ->
                          serve_partitioned variant env server_ep;
                          returned := true);
                      saw := client size env client_ep;
                      Chan.close client_ep);
                  Oracle.check oracle);
              check Alcotest.string (what ^ ": client saw") seen !saw;
              check Alcotest.bool (what ^ ": serve_connection returned") true !returned;
              let stat = Stats.get (W.kernel env.Env.app).Kernel.stats in
              check Alcotest.int (what ^ ": undegraded, no compartment fault") 0
                (stat (degraded_key variant) + stat "fault.compartment"))
            sizes)
        variants)
    field_rows

(* ---------- a malformed frame ends only its own connection ---------- *)

(* After a completed handshake the client sends a frame whose type byte
   names no message.  Its connection ends as a tampered stream's does;
   nothing escapes the run, the next connection is served, and the
   oracle, armed at every syscall, sweeps clean. *)
let test_malformed_frame_contained variant () =
  let env = mk_env () in
  let oracle = Oracle.create (W.kernel env.Env.app) in
  Oracle.set_app oracle env.Env.app;
  Oracle.install_syscall_hook oracle;
  let pinned = env.Env.priv.Rsa.pub in
  let first = ref false and saw = ref "" and second = ref None in
  Fun.protect
    ~finally:(fun () -> Oracle.remove_syscall_hook oracle)
    (fun () ->
      (match
         Fiber.run (fun () ->
             let client_ep, server_ep = Chan.pair ~costs:Cost_model.free () in
             Fiber.spawn (fun () ->
                 serve_partitioned variant env server_ep;
                 first := true);
             let io = wire client_ep in
             (saw :=
                match Handshake.client_connect ~rng:(Drbg.create ~seed:8) ~pinned io with
                | Error e -> "handshake failed: " ^ e
                | Ok _ ->
                    Chan.write client_ep (Bytes.of_string "Q\000\001x");
                    hung_up io);
             Chan.close client_ep;
             let client_ep, server_ep = Chan.pair ~costs:Cost_model.free () in
             Fiber.spawn (fun () -> serve_partitioned variant env server_ep);
             second := body_of (Client.get ~rng:(Drbg.create ~seed:9) ~pinned ~path:"/index.html" client_ep))
       with
      | () -> ()
      | exception e -> Alcotest.failf "%s escaped the run" (Printexc.to_string e));
      Oracle.check oracle);
  check Alcotest.string "the malformed connection hung up" "closed" !saw;
  check Alcotest.bool "its serve_connection returned" true !first;
  check (Alcotest.option Alcotest.string) "the next connection served" (Some Env.index_body) !second

(* ---------- a long-lived master forgets what it served ---------- *)

let test_master_forgets_served_connections () =
  let env = mk_env () in
  let l = Chan.listener ~costs:Cost_model.free ~backlog:4 () in
  let guard =
    Guard.create
      ~reactor:(Wedge_sim.Reactor.create ~clock:(W.kernel env.Env.app).Kernel.clock ())
      ~max_conns:4 ()
  in
  let before = Oracle.holdings env.Env.app in
  Fiber.run (fun () ->
      Fiber.spawn (fun () -> Service.serve_loop Mitm_httpd.service env guard l);
      for i = 1 to 100 do
        let r =
          Client.get ~rng:(Drbg.create ~seed:i) ~pinned:env.Env.priv.Rsa.pub ~path:"/index.html"
            (Chan.connect l)
        in
        if body_of r = None then Alcotest.failf "connection %d not served" i;
        Fiber.wait_until ~what:"connection released" (fun () -> Guard.active guard = 0)
      done;
      Guard.drain guard l);
  (* Callgates, descriptors and live tags back at their pre-serve counts. *)
  Oracle.check_returned ~what:"100 connections" env.Env.app before

let v name variant f = Alcotest.test_case (name ^ " (" ^ (match variant with VMono -> "mono" | VSimple -> "simple" | VMitm -> "mitm") ^ ")") `Quick (f variant)

let () =
  Alcotest.run "wedge_httpd"
    [
      ( "functional",
        [
          v "serves index" VMono test_serves_index;
          v "serves index" VSimple test_serves_index;
          v "serves index" VMitm test_serves_index;
          v "404" VMono test_404;
          v "404" VSimple test_404;
          v "404" VMitm test_404;
          v "resumption" VMono test_resumption;
          v "resumption" VSimple test_resumption;
          v "resumption" VMitm test_resumption;
          v "cache off" VMono test_cache_disabled;
          v "cache off" VMitm test_cache_disabled;
          v "recycled" VSimple test_recycled_variant;
          v "recycled" VMitm test_recycled_variant;
          Alcotest.test_case "recycled members, four connections in flight" `Quick
            test_recycled_members_concurrent;
        ] );
      ( "attacks",
        [
          Alcotest.test_case "mono exploit discloses key" `Quick test_mono_exploit_discloses_key;
          v "key unreachable" VSimple test_partitioned_exploit_cannot_reach_key;
          v "key unreachable" VMitm test_partitioned_exploit_cannot_reach_key;
          Alcotest.test_case "server random not caller-controlled" `Quick
            test_server_random_not_caller_controlled;
          Alcotest.test_case "MITM succeeds on simple partition" `Quick
            test_mitm_succeeds_on_simple_partition;
          Alcotest.test_case "MITM fails on fine partition" `Quick
            test_mitm_fails_on_fine_partition;
          Alcotest.test_case "handler gated on clean handshake" `Quick
            test_handler_not_started_after_bad_handshake;
          Alcotest.test_case "client handler has no network" `Quick
            test_client_handler_has_no_network;
          Alcotest.test_case "data-phase injection dropped" `Quick
            test_injection_during_data_phase_dropped;
          v "malformed frame contained" VSimple test_malformed_frame_contained;
          v "malformed frame contained" VMitm test_malformed_frame_contained;
        ] );
      ( "session-cache",
        [
          Alcotest.test_case "tagged-memory store semantics" `Quick test_sess_store_semantics;
          Alcotest.test_case "cache tag unreadable by compartments" `Quick
            test_session_cache_tag_unreadable_by_compartments;
        ] );
      ( "selinux",
        [
          Alcotest.test_case "strict policy still serves" `Quick test_strict_selinux_still_serves;
          Alcotest.test_case "off-policy syscalls denied" `Quick
            test_strict_selinux_denies_offpolicy_syscalls;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "client-sized fields fit their blocks" `Quick
            test_client_sized_fields;
        ] );
      ( "resources",
        [
          Alcotest.test_case "master forgets served connections (mitm)" `Quick
            test_master_forgets_served_connections;
        ] );
    ]
