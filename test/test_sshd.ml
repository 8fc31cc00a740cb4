(* OpenSSH stand-in tests: the three authentication methods across the
   monolithic / privilege-separated / Wedge-partitioned servers, S/Key
   chain behaviour, scp, authentication bypass resistance, and the two
   lessons of §5.2 — the username-probing leak of classic privilege
   separation (fixed by the dummy-passwd callgate) and the PAM
   scratch-memory leak (fixed by callgate-private heaps). *)

module Kernel = Wedge_kernel.Kernel
module Cost_model = Wedge_sim.Cost_model
module Layout = Wedge_kernel.Layout
module Fiber = Wedge_sim.Fiber
module Chan = Wedge_net.Chan
module Attacker = Wedge_net.Attacker
module Drbg = Wedge_crypto.Drbg
module Rsa = Wedge_crypto.Rsa
module W = Wedge_core.Wedge
module Env = Wedge_sshd.Sshd_env
module Mono = Wedge_sshd.Sshd_mono
module Privsep = Wedge_sshd.Sshd_privsep
module Wedge_d = Wedge_sshd.Sshd_wedge
module Client = Wedge_sshd.Ssh_client
module Skey = Wedge_sshd.Skey
module Pam = Wedge_sshd.Pam
module Service = Wedge_net.Service
module Guard = Wedge_net.Guard
module Oracle = Wedge_check.Oracle
module Process = Wedge_kernel.Process
module Wire = Wedge_tls.Wire
module P = Wedge_sshd.Ssh_proto

let check = Alcotest.check

let mk_env () =
  let k = Kernel.create ~costs:Cost_model.free () in
  Env.install ~image_pages:80 k

type variant = VMono | VPrivsep | VWedge

let vname = function VMono -> "mono" | VPrivsep -> "privsep" | VWedge -> "wedge"

let with_conn env variant f =
  let result = ref None in
  Fiber.run (fun () ->
      let client_ep, server_ep = Chan.pair ~costs:Cost_model.free () in
      Fiber.spawn (fun () ->
          match variant with
          | VMono -> Mono.serve_connection env server_ep
          | VPrivsep -> ignore (Privsep.serve_connection env server_ep)
          | VWedge -> ignore (Wedge_d.serve_connection env server_ep));
      let rng = Drbg.create ~seed:0xC0 in
      match
        Client.start ~rng ~pinned_rsa:env.Env.host_rsa.Rsa.pub
          ~pinned_dsa:env.Env.host_dsa.Wedge_crypto.Dsa.pub client_ep
      with
      | Error e -> Alcotest.fail ("kex failed: " ^ e)
      | Ok conn ->
          result := Some (f conn);
          Client.close conn);
  Option.get !result

(* ---------- functional ---------- *)

let test_password_login variant () =
  let env = mk_env () in
  let ok =
    with_conn env variant (fun c -> Client.authenticate c ~user:"alice" (Client.Password "wonderland"))
  in
  check Alcotest.bool (vname variant ^ " password login") true ok

let test_wrong_password variant () =
  let env = mk_env () in
  let ok =
    with_conn env variant (fun c -> Client.authenticate c ~user:"alice" (Client.Password "nope"))
  in
  check Alcotest.bool "rejected" false ok

let test_pubkey_login variant () =
  let env = mk_env () in
  let alice = List.hd env.Env.users in
  let ok =
    with_conn env variant (fun c ->
        Client.authenticate c ~user:"alice" (Client.Pubkey (Env.user_key alice)))
  in
  check Alcotest.bool (vname variant ^ " pubkey login") true ok

let test_pubkey_wrong_key variant () =
  let env = mk_env () in
  let bob = List.nth env.Env.users 1 in
  (* bob's key is not in alice's authorized_keys *)
  let ok =
    with_conn env variant (fun c ->
        Client.authenticate c ~user:"alice" (Client.Pubkey (Env.user_key bob)))
  in
  check Alcotest.bool "rejected" false ok

let test_skey_login variant () =
  let env = mk_env () in
  let ok =
    with_conn env variant (fun c ->
        Client.authenticate c ~user:"alice" (Client.Skey "rabbit hole"))
  in
  check Alcotest.bool (vname variant ^ " skey login") true ok

let test_skey_chain_advances variant () =
  let env = mk_env () in
  (* Two consecutive S/Key logins must use decreasing sequence numbers and
     a replayed response must fail. *)
  let seq1 =
    with_conn env variant (fun c ->
        let chal = Client.skey_challenge_for c ~user:"alice" in
        (match chal with
        | Some (seq, seed) ->
            ignore (Client.skey_answer c ~response:(Skey.respond ~passphrase:"rabbit hole" ~seed ~seq))
        | None -> ());
        chal)
  in
  let seq2 = with_conn env variant (fun c -> Client.skey_challenge_for c ~user:"alice") in
  match (seq1, seq2) with
  | Some (s1, _), Some (s2, _) ->
      check Alcotest.int "sequence decreased" (s1 - 1) s2;
      (* Replaying the old response fails now. *)
      let replay_ok =
        with_conn env variant (fun c ->
            match Client.skey_challenge_for c ~user:"alice" with
            | Some (_, seed) ->
                Client.skey_answer c
                  ~response:(Skey.respond ~passphrase:"rabbit hole" ~seed ~seq:s1)
            | None -> false)
      in
      check Alcotest.bool "replay rejected" false replay_ok
  | _ -> Alcotest.fail "no challenges"

let test_exec_requires_auth variant () =
  let env = mk_env () in
  let reply = with_conn env variant (fun c -> Client.exec c "shell") in
  check (Alcotest.option Alcotest.string) "denied pre-auth" (Some "permission denied") reply

let test_scp_upload () =
  let env = mk_env () in
  let data = String.init 4096 (fun i -> Char.chr (i land 0xff)) in
  let ok =
    with_conn env VWedge (fun c ->
        if Client.authenticate c ~user:"alice" (Client.Password "wonderland") then
          Client.scp_upload c ~path:"upload.bin" ~data
        else false)
  in
  check Alcotest.bool "scp saved" true ok;
  (* The worker's root became /home/alice after authentication. *)
  let k = W.kernel env.Env.app in
  match Wedge_kernel.Vfs.read_file k.Kernel.vfs ~root:"/" ~uid:0 "/home/alice/upload.bin" with
  | Ok saved -> check Alcotest.bool "content intact" true (String.equal saved data)
  | Error _ -> Alcotest.fail "upload not found under alice's home"

(* The scp staging buffer is capped at Sshd_session.max_upload_bytes: an
   upload one byte over is refused ("upload too large", so scp reports no
   "saved"), nothing reaches the filesystem, and the session ends with
   the worker exiting normally — a contained refusal, not a fault. *)
let test_scp_upload_too_large () =
  let env = mk_env () in
  let data = String.make (Wedge_sshd.Sshd_session.max_upload_bytes + 1) 'x' in
  let served = ref None in
  let saved =
    let result = ref true in
    Fiber.run (fun () ->
        let client_ep, server_ep = Chan.pair ~costs:Cost_model.free () in
        Fiber.spawn (fun () -> served := Some (Wedge_d.serve_connection env server_ep));
        match
          Client.login ~rng:(Drbg.create ~seed:0xC0) ~pinned_rsa:env.Env.host_rsa.Rsa.pub
            ~pinned_dsa:env.Env.host_dsa.Wedge_crypto.Dsa.pub ~user:"alice"
            (Client.Password "wonderland") client_ep
        with
        | Error e -> Alcotest.fail ("login failed: " ^ e)
        | Ok c ->
            result := Client.scp_upload c ~path:"big.bin" ~data;
            Client.close c);
    !result
  in
  check Alcotest.bool "upload refused" false saved;
  (match !served with
  | Some d -> (
      match d.Service.worker_status with
      | Wedge_kernel.Process.Exited _ -> ()
      | _ -> Alcotest.fail "worker did not exit normally")
  | None -> Alcotest.fail "serve_connection never returned");
  let k = W.kernel env.Env.app in
  match Wedge_kernel.Vfs.read_file k.Kernel.vfs ~root:"/" ~uid:0 "/home/alice/big.bin" with
  | Ok _ -> Alcotest.fail "oversized upload reached the filesystem"
  | Error _ -> ()

let test_shell_runs_as_user () =
  let env = mk_env () in
  let reply =
    with_conn env VWedge (fun c ->
        if Client.authenticate c ~user:"alice" (Client.Password "wonderland") then
          Client.exec c "shell"
        else None)
  in
  check (Alcotest.option Alcotest.string) "uid escalated to alice" (Some "Welcome, uid 1000") reply

(* ---------- S/Key unit behaviour ---------- *)

let test_skey_chain_math () =
  let stored = Skey.chain ~passphrase:"pp" ~seed:"sd" ~count:10 in
  let resp = Skey.respond ~passphrase:"pp" ~seed:"sd" ~seq:9 in
  check Alcotest.string "H(resp) = stored" stored (Skey.hash_hex resp);
  let e = { Skey.user = "u"; seq = 10; seed = "sd"; stored } in
  (match Skey.verify e ~response:resp with
  | Some e' ->
      check Alcotest.int "seq decrements" 9 e'.Skey.seq;
      check Alcotest.string "stored replaced" resp e'.Skey.stored
  | None -> Alcotest.fail "verify failed");
  check Alcotest.bool "wrong response rejected" true (Skey.verify e ~response:"bad" = None);
  check Alcotest.bool "line roundtrip" true
    (Skey.entry_of_line (Skey.entry_to_line e) = Some e)

(* ---------- attacks ---------- *)

(* The master holds the host keys and root's filesystem from its first
   kernel entry, the version banner, so the payload takes over there. *)
let test_mono_exploit_gets_hostkey_and_shadow () =
  let env = mk_env () in
  let loot = Attacker.loot_create () in
  let ran = ref false in
  Sweep.arm ~where:W.Master ~at:1 ran
    (fun ctx ->
      (match Attacker.try_read ctx ~addr:env.Env.rsa_addr ~len:32 with
      | Ok d -> Attacker.grab loot ~label:"hostkey" d
      | Error _ -> ());
      match W.vfs_read ctx Env.shadow_path with
      | Ok d -> Attacker.grab loot ~label:"shadow" d
      | Error _ -> ())
    env.Env.app;
  ignore (with_conn env VMono (fun c -> Client.exec c "shell"));
  check Alcotest.bool "payload ran" true !ran;
  check Alcotest.bool "hostkey read" true (Attacker.stolen loot ~label:"hostkey" <> None);
  check Alcotest.bool "shadow read" true (Attacker.stolen loot ~label:"shadow" <> None)

(* The Figure 6 worker is the connection's first child; each blocked
   claim below is swept over every one of its kernel entries. *)
let test_wedge_exploit_contained () =
  let fired =
    Sweep.entries (fun at ->
        let env = mk_env () in
        let loot = Attacker.loot_create () in
        let ran = ref false in
        Sweep.arm ~where:(W.Child 1) ~at ran
          (fun ctx ->
            (match Attacker.try_read ctx ~addr:env.Env.rsa_addr ~len:32 with
            | Ok d -> Attacker.grab loot ~label:"hostkey" d
            | Error _ -> ());
            (match W.vfs_read ctx Env.shadow_path with
            | Ok d -> Attacker.grab loot ~label:"shadow" d
            | Error _ -> ());
            match W.vfs_read ctx Env.skey_path with
            | Ok d -> Attacker.grab loot ~label:"skey" d
            | Error _ -> ())
          env.Env.app;
        ignore (with_conn env VWedge (fun c -> Client.exec c "shell"));
        check Alcotest.int (Printf.sprintf "entry %d: nothing reachable" at) 0 (Attacker.count loot);
        !ran)
  in
  check Alcotest.bool "payload ran" true (fired > 0)

let test_wedge_exploit_cannot_selfpromote () =
  (* The worker cannot change its own uid: only the auth gates can, and
     only on success.  Each run takes the worker over at one of its
     kernel entries and records its uid after the attempt. *)
  let fired =
    Sweep.entries (fun at ->
        let env = mk_env () in
        let outcome = ref `Untried in
        let uids = ref [] in
        let ran = ref false in
        Sweep.arm ~where:(W.Child 1) ~at ran
          (fun ctx ->
            (match W.set_identity ctx ~target_pid:(W.pid ctx) ~uid:0 () with
            | () -> outcome := `Promoted
            | exception W.Privilege_violation _ -> outcome := `Denied
            | exception Kernel.Eperm _ -> outcome := `Denied);
            uids := W.getuid ctx :: !uids)
          env.Env.app;
        Fiber.run (fun () ->
            let client_ep, server_ep = Chan.pair ~costs:Cost_model.free () in
            Fiber.spawn (fun () -> ignore (Wedge_d.serve_connection env server_ep));
            let rng = Drbg.create ~seed:0xC1 in
            match
              Client.start ~rng ~pinned_rsa:env.Env.host_rsa.Rsa.pub
                ~pinned_dsa:env.Env.host_dsa.Wedge_crypto.Dsa.pub client_ep
            with
            | Ok conn ->
                ignore (Client.exec conn "shell");
                (* still unauthenticated afterwards *)
                let reply = Client.exec conn "shell" in
                check (Alcotest.option Alcotest.string)
                  (Printf.sprintf "entry %d: still locked out" at)
                  (Some "permission denied") reply;
                ignore (Client.exec conn "shell");
                Client.close conn
            | Error e -> Alcotest.fail e);
        if !ran then begin
          check Alcotest.bool (Printf.sprintf "entry %d: self-promotion denied" at) true
            (!outcome = `Denied);
          match !uids with
          | last :: _ ->
              check Alcotest.int (Printf.sprintf "entry %d: worker ended unprivileged" at) 99 last
          | [] -> Alcotest.fail "exploit never ran"
        end;
        !ran)
  in
  check Alcotest.bool "payload ran" true (fired > 0)

(* ---------- lesson 1: username probing ---------- *)

(* Entry 3 of the forked slave: its 1st is its own setuid and its 2nd
   its version banner, so the 3rd, its first read of client input, is
   the earliest point a network exploit takes it over. *)
let privsep_slave_entry = 3

let test_privsep_username_oracle () =
  (* An exploited privsep slave asks the monitor's getpwnam at will: the
     NULL / non-NULL distinction reveals which usernames exist (portable
     OpenSSH 4.7 behaviour). *)
  let env = mk_env () in
  let verdicts = ref [] in
  let ran = ref false in
  Sweep.arm ~where:(W.Child 1) ~at:privsep_slave_entry ran
    (fun _ctx ->
      let monitor = Privsep.monitor env in
      verdicts :=
        List.map
          (fun u -> (u, monitor.Privsep.m_getpw u <> None))
          [ "alice"; "bob"; "mallory"; "eve" ])
    env.Env.app;
  ignore (with_conn env VPrivsep (fun c -> Client.exec c "shell"));
  check Alcotest.bool "payload ran" true !ran;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.bool))
    "existence leaked"
    [ ("alice", true); ("bob", true); ("mallory", false); ("eve", false) ]
    !verdicts

let test_privsep_skey_leak_without_exploit () =
  (* The S/Key variant leaks over the network, no exploit needed: unknown
     users get no challenge. *)
  let env = mk_env () in
  let known, unknown =
    with_conn env VPrivsep (fun c ->
        ( Client.skey_challenge_for c ~user:"alice" <> None,
          Client.skey_challenge_for c ~user:"mallory" <> None ))
  in
  check Alcotest.bool "known user gets challenge" true known;
  check Alcotest.bool "unknown user refused (the leak)" false unknown

let test_wedge_no_username_oracle () =
  (* The Wedge gates answer identically for unknown users: the password
     gate returns the same failure, the S/Key gate issues a dummy
     challenge. *)
  let env = mk_env () in
  let wrong_pw, unknown_pw, known_chal, unknown_chal, unknown_chal2 =
    with_conn env VWedge (fun c ->
        ( Client.authenticate c ~user:"alice" (Client.Password "bad"),
          Client.authenticate c ~user:"mallory" (Client.Password "bad"),
          Client.skey_challenge_for c ~user:"alice" <> None,
          Client.skey_challenge_for c ~user:"mallory",
          Client.skey_challenge_for c ~user:"mallory" ))
  in
  check Alcotest.bool "wrong password: same verdict" true (wrong_pw = unknown_pw);
  check Alcotest.bool "known user: challenge" true known_chal;
  check Alcotest.bool "unknown user: dummy challenge too" true (unknown_chal <> None);
  check Alcotest.bool "dummy challenge is stable across probes" true
    (unknown_chal = unknown_chal2)

(* ---------- lesson 2: PAM scratch memory ---------- *)

let heap_hunt ctx needle =
  (* Scan the (inherited) heap for a cleartext password remnant. *)
  let found = ref false in
  for page = 0 to Layout.heap_pages - 1 do
    let addr = Layout.heap_base + (page * 4096) in
    match Attacker.try_read ctx ~addr ~len:4096 with
    | Ok data ->
        let nl = String.length needle and hl = String.length data in
        let rec go i = i + nl <= hl && (String.sub data i nl = needle || go (i + 1)) in
        if go 0 then found := true
    | Error _ -> ()
  done;
  !found

let test_privsep_pam_scratch_inherited () =
  let env = mk_env () in
  (* Connection 1: alice authenticates; PAM scratch lands in the monitor's
     heap. *)
  ignore
    (with_conn env VPrivsep (fun c ->
         Client.authenticate c ~user:"alice" (Client.Password "wonderland")));
  (* Connection 2: the slave forked for it inherits that heap; an exploit
     finds alice's cleartext password. *)
  let stolen = ref false in
  let ran = ref false in
  Sweep.arm ~where:(W.Child 1) ~at:privsep_slave_entry ran
    (fun ctx -> stolen := heap_hunt ctx "wonderland")
    env.Env.app;
  ignore (with_conn env VPrivsep (fun c -> Client.exec c "shell"));
  check Alcotest.bool "payload ran" true !ran;
  check Alcotest.bool "previous user's password recovered from heap" true !stolen

let test_wedge_pam_scratch_unreachable () =
  let fired =
    Sweep.entries (fun at ->
        let env = mk_env () in
        ignore
          (with_conn env VWedge (fun c ->
               Client.authenticate c ~user:"alice" (Client.Password "wonderland")));
        let stolen = ref false in
        let ran = ref false in
        Sweep.arm ~where:(W.Child 1) ~at ran
          (fun ctx -> stolen := heap_hunt ctx "wonderland")
          env.Env.app;
        ignore (with_conn env VWedge (fun c -> Client.exec c "shell"));
        check Alcotest.bool (Printf.sprintf "entry %d: no password remnant reachable" at) false
          !stolen;
        !ran)
  in
  check Alcotest.bool "payload ran" true (fired > 0)

(* ---------- property tests ---------- *)

let prop_skey_chain_walk =
  QCheck.Test.make ~name:"skey chain verifies all the way down" ~count:25
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 1 20)) (int_range 3 12))
    (fun (passphrase, n) ->
      let seed = "sd" in
      let e0 =
        { Skey.user = "u"; seq = n; seed; stored = Skey.chain ~passphrase ~seed ~count:n }
      in
      let rec walk e =
        if Skey.exhausted e then true
        else
          let seq, seed = Skey.challenge e in
          let resp = Skey.respond ~passphrase ~seed ~seq in
          (* the correct response verifies, a corrupted one does not *)
          Skey.verify e ~response:(resp ^ "x") = None
          &&
          match Skey.verify e ~response:resp with
          | Some e' -> e'.Skey.seq = e.Skey.seq - 1 && walk e'
          | None -> false
      in
      walk e0)

let msg_gen =
  let open QCheck.Gen in
  let str = string_size ~gen:(char_range 'a' 'z') (int_range 0 40) in
  let bts = map Bytes.of_string str in
  oneof
    [
      map (fun s -> Wedge_sshd.Ssh_proto.Version s) str;
      map (fun b -> Wedge_sshd.Ssh_proto.Kexinit b) bts;
      map2 (fun u p -> Wedge_sshd.Ssh_proto.Auth_password { user = u; password = p }) str str;
      map (fun u -> Wedge_sshd.Ssh_proto.Skey_start { user = u }) str;
      map2 (fun seq seed -> Wedge_sshd.Ssh_proto.Skey_challenge { seq; seed }) (int_range 0 999) str;
      map (fun r -> Wedge_sshd.Ssh_proto.Skey_response { response = r }) str;
      map (fun ok -> Wedge_sshd.Ssh_proto.Auth_result ok) bool;
      map (fun c -> Wedge_sshd.Ssh_proto.Exec c) str;
      map (fun b -> Wedge_sshd.Ssh_proto.Data b) bts;
      return Wedge_sshd.Ssh_proto.Eof;
      return Wedge_sshd.Ssh_proto.Disconnect;
    ]

let prop_proto_roundtrip =
  QCheck.Test.make ~name:"wssh messages roundtrip through marshalling" ~count:200
    (QCheck.make msg_gen)
    (fun msg ->
      Wedge_sshd.Ssh_proto.unmarshal (Wedge_sshd.Ssh_proto.marshal msg) = Some msg)

(* ---------- client-sized fields against the argument block ---------- *)

let wire ep =
  Wire.io_of_fns
    ~recv:(fun n ->
      let b = Chan.read ep n in
      if Bytes.length b = 0 then None else Some b)
    ~send:(fun b -> Chan.write ep b)

(* Version exchange, then a Kexinit carrying [nonce]: the server's
   Kexreply. *)
let kexinit io nonce =
  ignore (P.recv_plain io);
  P.send_plain io (P.Version "WSSH-1.0-test");
  P.send_plain io (P.Kexinit nonce);
  match P.recv_plain io with
  | P.Kexreply { signature; _ } -> signature
  | _ -> Alcotest.fail "expected kexreply"

let kex_nonce size _env ep =
  if kexinit (wire ep) (Bytes.make size 'n') = "" then "unsigned" else "signed"

let kex_secret size _env ep =
  let io = wire ep in
  ignore (kexinit io (Bytes.make 32 'n'));
  P.send_plain io (P.Kexsecret (Bytes.make size 's'));
  match P.recv_plain io with _ -> "answered" | exception Wire.Closed -> "closed"

(* A clean key exchange, then [auth] as the client. *)
let after_kex env ep auth =
  match
    Client.start ~rng:(Drbg.create ~seed:0xC2) ~pinned_rsa:env.Env.host_rsa.Rsa.pub
      ~pinned_dsa:env.Env.host_dsa.Wedge_crypto.Dsa.pub ep
  with
  | Error e -> "kex failed: " ^ e
  | Ok c ->
      let seen = auth c in
      Client.close c;
      seen

let pubkey_user size env ep =
  after_kex env ep (fun c ->
      let key = Env.user_key (List.hd env.Env.users) in
      if Client.authenticate c ~user:(String.make size 'u') (Client.Pubkey key) then "accepted"
      else "refused")

let skey_user size env ep =
  after_kex env ep (fun c ->
      match Client.skey_challenge_for c ~user:(String.make size 'u') with
      | Some _ -> "challenged"
      | None -> "refused")

(* Each gate reads length-prefixed fields at fixed offsets of the
   6000-byte argument block, and every field the client sizes is written
   only when it ends before the gate's next field: a Kexinit nonce (+0,
   next at +256), a Kexsecret (+0, reply at +512), a user name on the
   public-key path (+0, next at +256) or the S/Key path (+8, next at
   +256).  Each row's first size is the largest that fits and behaves as
   it always did; an oversized one is refused with the protocol's own
   failure instead of running past the block, which the oracle, armed at
   every syscall, would catch as a corrupted smalloc chunk. *)
let field_rows =
  [
    ("Kexinit nonce", kex_nonce, [ (252, "signed"); (6_100, "unsigned") ]);
    ("Kexsecret", kex_secret, [ (508, "closed"); (6_100, "closed") ]);
    ("public-key user name", pubkey_user, [ (252, "refused"); (6_000, "refused") ]);
    ("S/Key user name", skey_user, [ (244, "challenged"); (6_000, "refused") ]);
  ]

let test_client_sized_fields () =
  List.iter
    (fun (field, client, sizes) ->
      List.iter
        (fun (size, seen) ->
          let what = Printf.sprintf "%s, %d bytes" field size in
          let env = mk_env () in
          let oracle = Oracle.create (W.kernel env.Env.app) in
          Oracle.set_app oracle env.Env.app;
          Oracle.install_syscall_hook oracle;
          let served = ref None and saw = ref "" in
          Fun.protect
            ~finally:(fun () -> Oracle.remove_syscall_hook oracle)
            (fun () ->
              Fiber.run (fun () ->
                  let client_ep, server_ep = Chan.pair ~costs:Cost_model.free () in
                  Fiber.spawn (fun () -> served := Some (Wedge_d.serve_connection env server_ep));
                  saw := client size env client_ep;
                  Chan.close client_ep);
              Oracle.check oracle);
          check Alcotest.string (what ^ ": client saw") seen !saw;
          match !served with
          | Some s ->
              check Alcotest.bool (what ^ ": worker exited, undegraded") true
                (s.Service.worker_status = Process.Exited 0 && not s.Service.degraded)
          | None -> Alcotest.failf "%s: serve_connection never returned" what)
        sizes)
    field_rows

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
      Fiber.spawn (fun () -> Service.serve_loop Wedge_d.service env guard l);
      for i = 1 to 100 do
        (match
           Client.login ~rng:(Drbg.create ~seed:i) ~pinned_rsa:env.Env.host_rsa.Rsa.pub
             ~pinned_dsa:env.Env.host_dsa.Wedge_crypto.Dsa.pub ~user:"alice"
             (Client.Password "wonderland") (Chan.connect l)
         with
        | Ok c -> Client.close c
        | Error e -> Alcotest.failf "connection %d: %s" i e);
        Fiber.wait_until ~what:"connection released" (fun () -> Guard.active guard = 0)
      done;
      Guard.drain guard l);
  (* Callgates, descriptors and live tags back at their pre-serve counts. *)
  Oracle.check_returned ~what:"100 connections" env.Env.app before

let qcheck tests = List.map Test_rng.to_alcotest tests

let both name f = [ Alcotest.test_case (name ^ " (mono)") `Quick (f VMono);
                    Alcotest.test_case (name ^ " (privsep)") `Quick (f VPrivsep);
                    Alcotest.test_case (name ^ " (wedge)") `Quick (f VWedge) ]

let () =
  Alcotest.run "wedge_sshd"
    [
      ( "functional",
        both "password login" test_password_login
        @ both "wrong password" test_wrong_password
        @ both "pubkey login" test_pubkey_login
        @ both "pubkey wrong key" test_pubkey_wrong_key
        @ both "skey login" test_skey_login
        @ [
            Alcotest.test_case "skey chain advances (wedge)" `Quick
              (test_skey_chain_advances VWedge);
            Alcotest.test_case "skey chain advances (mono)" `Quick
              (test_skey_chain_advances VMono);
          ]
        @ both "exec requires auth" test_exec_requires_auth
        @ [
            Alcotest.test_case "scp upload" `Quick test_scp_upload;
            Alcotest.test_case "scp upload too large" `Slow test_scp_upload_too_large;
            Alcotest.test_case "shell as user" `Quick test_shell_runs_as_user;
            Alcotest.test_case "skey chain math" `Quick test_skey_chain_math;
          ] );
      ( "attacks",
        [
          Alcotest.test_case "mono exploit gets everything" `Quick
            test_mono_exploit_gets_hostkey_and_shadow;
          Alcotest.test_case "wedge exploit contained" `Quick test_wedge_exploit_contained;
          Alcotest.test_case "no self-promotion" `Quick test_wedge_exploit_cannot_selfpromote;
        ] );
      ("properties", qcheck [ prop_skey_chain_walk; prop_proto_roundtrip ]);
      ( "lessons",
        [
          Alcotest.test_case "privsep username oracle" `Quick test_privsep_username_oracle;
          Alcotest.test_case "privsep skey leak (no exploit)" `Quick
            test_privsep_skey_leak_without_exploit;
          Alcotest.test_case "wedge: no username oracle" `Quick test_wedge_no_username_oracle;
          Alcotest.test_case "privsep PAM scratch inherited" `Quick
            test_privsep_pam_scratch_inherited;
          Alcotest.test_case "wedge PAM scratch unreachable" `Quick
            test_wedge_pam_scratch_unreachable;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "client-sized fields fit their slots" `Quick
            test_client_sized_fields;
        ] );
      ( "resources",
        [
          Alcotest.test_case "master forgets served connections (wedge)" `Quick
            test_master_forgets_served_connections;
        ] );
    ]
