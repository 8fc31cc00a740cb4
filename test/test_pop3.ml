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
module Guard = Wedge_net.Guard
module Service = Wedge_net.Service
module Engine = Wedge_core.Engine
module Stats = Wedge_sim.Stats

let check = Alcotest.check

let mk_env ?(users = Pop3_env.default_users) () =
  let k = Kernel.create ~costs:Cost_model.free () in
  Pop3_env.install k users;
  let app = W.create_app k in
  W.boot app;
  (k, app, W.main_ctx app)

type server = Mono | Wedge

(* [arm] runs on the fresh app before the session, to arm a takeover. *)
let with_session ?users ?(arm = ignore) server client_script =
  let _, app, main = mk_env ?users () in
  arm app;
  let result = ref None in
  Fiber.run (fun () ->
      let client_ep, server_ep = Chan.pair ~costs:Cost_model.free () in
      Fiber.spawn (fun () ->
          match server with
          | Mono -> Pop3_mono.serve_connection main server_ep
          | Wedge -> Pop3_wedge.serve_connection main server_ep);
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

(* One pipelined session on a fresh world holding [users]: [request]
   goes out in one write, and everything the server sends back is read
   to EOF.  Returns the server → client bytes and the kernel.  The
   invariant oracle is armed at every syscall and checked at the end. *)
let raw_session ?(users = Pop3_env.default_users) server request =
  let k = Kernel.create ~costs:Cost_model.free () in
  Pop3_env.install k users;
  let app = W.create_app k in
  W.boot app;
  let main = W.main_ctx app in
  let oracle = Oracle.create k in
  Oracle.set_app oracle app;
  Oracle.install_syscall_hook oracle;
  let out = Buffer.create 1024 in
  Fun.protect
    ~finally:(fun () -> Oracle.remove_syscall_hook oracle)
    (fun () ->
      Fiber.run (fun () ->
          let client_ep, server_ep = Chan.pair ~costs:Cost_model.free () in
          Fiber.spawn (fun () ->
              match server with
              | Mono -> Pop3_mono.serve_connection main server_ep
              | Wedge -> Pop3_wedge.serve_connection main server_ep);
          Chan.write_string client_ep request;
          let rec drain () =
            let b = Chan.read client_ep 4096 in
            if Bytes.length b > 0 then begin
              Buffer.add_bytes out b;
              drain ()
            end
          in
          drain ();
          Chan.close client_ep);
      Oracle.check oracle);
  (Buffer.contents out, k)

(* The status lines of a transcript, in order: every line that starts
   a reply. *)
let statuses transcript =
  String.split_on_char '\n' transcript
  |> List.filter_map (fun l ->
         if String.starts_with ~prefix:"+OK" l || String.starts_with ~prefix:"-ERR" l then
           Some (String.trim l)
         else None)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* The mailbox callgate hands a reply to the handler through one
   16,384-byte mail-buffer block, as a u32 length then the text: 16,380
   bytes is the largest that fits.  A longer mail, or a listing of
   3,000 more one-byte mails (about 21 KB), must be refused with its
   own -ERR text — neither "no such message" nor "not authenticated" —
   and not written past the block into the rest of the pop3.mail tag:
   the oracle, armed at every syscall, checks the smalloc headers and
   footers. *)
let test_mail_buffer_bound () =
  let fits = String.make 16_380 'f' and over = String.make 16_381 'o' in
  let mails = fits :: over :: List.init 3_000 (fun _ -> "x") in
  let transcript, _ =
    raw_session
      ~users:[ { Pop3_env.name = "carol"; uid = 1003; password = "seashell"; mails } ]
      Wedge
      "USER carol\r\nPASS seashell\r\nSTAT\r\nLIST\r\nRETR 1\r\nRETR 2\r\nRETR 9999\r\nQUIT\r\n"
  in
  check Alcotest.bool "16,380-byte mail byte-equal" true
    (contains transcript ("+OK 16380 octets\r\n" ^ fits ^ "\r\n.\r\n"));
  check
    Alcotest.(list string)
    "each refusal has its own text"
    [
      "+OK wedge-pop3 ready";
      "+OK send PASS";
      "+OK logged in";
      "+OK 3002 35761";
      "-ERR reply too large";
      "+OK 16380 octets";
      "-ERR reply too large";
      "-ERR no such message";
      "+OK bye";
    ]
    (statuses transcript)

(* Every reply leaves the server in exactly one write — a multi-line
   LIST or RETR too — so a client never waits out a half round trip
   partway through one.  Coalescing must not change the bytes on the
   wire: the digest pins the session's transcript. *)
let test_one_write_per_reply () =
  List.iter
    (fun server ->
      let transcript, k =
        raw_session server
          "USER alice\r\nPASS wonderland\r\nSTAT\r\nLIST\r\nRETR 1\r\nQUIT\r\n"
      in
      check Alcotest.int "one write trap per reply (greeting + 6 commands)" 7
        (Stats.get k.Kernel.stats "trap.write");
      check Alcotest.string "transcript digest" "0827817740bb7d9ba697eab357b57933"
        (Digest.to_hex (Digest.string transcript)))
    [ Mono; Wedge ]

(* A message number travels to the mailbox callgate as a u32: one
   outside [0, 2^32) must be refused as no such message, never wrapped
   onto mail 1.  Both servers answer the monolithic transcript, and
   alice keeps both mails. *)
let test_message_number_out_of_range () =
  List.iter
    (fun server ->
      let transcript, _ =
        raw_session server
          "USER alice\r\nPASS wonderland\r\nRETR 4294967297\r\nRETR -4294967295\r\n\
           DELE 4294967297\r\nSTAT\r\nQUIT\r\n"
      in
      check
        Alcotest.(list string)
        "out-of-range numbers refused"
        [
          "+OK wedge-pop3 ready";
          "+OK send PASS";
          "+OK logged in";
          "-ERR no such message";
          "-ERR no such message";
          "-ERR no such message";
          "+OK 2 106";
          "+OK bye";
        ]
        (statuses transcript))
    [ Mono; Wedge ]

(* Minor words plus words allocated directly in the major heap. *)
let host_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. (major -. promoted)

(* A server that announces a hostile body length gets a refused read,
   not an exception: [retr] returns [None] for a length below zero or
   past the client's line cap, and never allocates it up front.  Each
   reply comes from a scripted server line. *)
let test_client_refuses_hostile_length () =
  List.iter
    (fun octets ->
      let got = ref (Some "unset") and words = ref 0. in
      Fiber.run (fun () ->
          let client_ep, server_ep = Chan.pair ~costs:Cost_model.free () in
          Chan.write_string server_ep
            (Printf.sprintf "+OK ready\r\n+OK %s octets\r\nbody\r\n.\r\n" octets);
          Chan.close server_ep;
          let c = Pop3_client.connect client_ep in
          let w0 = host_words () in
          got := Pop3_client.retr c 1;
          words := host_words () -. w0);
      check (Alcotest.option Alcotest.string) (octets ^ " octets") None !got;
      check Alcotest.bool (octets ^ " octets: nothing allocated for it") true (!words < 1_000.))
    [ "-5"; "-4611686018427387904"; "2000000"; "4611686018427387903" ]

(* A RETR of the smallest and of the largest mail the mail buffer holds
   (16,380 bytes) reads the same on the wire from both servers. *)
let test_retr_edge_sizes_identical () =
  let biggest = String.init 16_380 (fun i -> Char.chr (32 + (i mod 95))) in
  let users =
    [ { Pop3_env.name = "erin"; uid = 1005; password = "edges"; mails = [ ""; biggest ] } ]
  in
  let request = "USER erin\r\nPASS edges\r\nRETR 1\r\nRETR 2\r\nQUIT\r\n" in
  let mono, _ = raw_session ~users Mono request in
  let wedge, _ = raw_session ~users Wedge request in
  check Alcotest.bool "empty mail" true (contains mono "+OK 0 octets\r\n\r\n.\r\n");
  check Alcotest.bool "16,380-byte mail" true
    (contains mono ("+OK 16380 octets\r\n" ^ biggest ^ "\r\n.\r\n"));
  check Alcotest.string "wedge transcript = mono transcript" mono wedge

(* Every reply is composed in one buffer per connection, grown for the
   longest reply so far, and only a reply's own bytes are sent: short
   replies after a long RETR carry none of its tail.  The partitioned
   transcript is the monolithic one, and both are exactly these
   replies. *)
let test_no_residue_from_longer_reply () =
  let long = String.init 12_000 (fun i -> Char.chr (33 + (i mod 90))) and short = "hi" in
  let users =
    [ { Pop3_env.name = "finn"; uid = 1006; password = "fathom"; mails = [ long; short ] } ]
  in
  let request =
    "USER finn\r\nPASS fathom\r\nRETR 1\r\nSTAT\r\nRETR 2\r\nLIST\r\nRETR 7\r\nNOOP\r\nQUIT\r\n"
  in
  let expected =
    String.concat ""
      [
        "+OK wedge-pop3 ready\r\n";
        "+OK send PASS\r\n";
        "+OK logged in\r\n";
        "+OK 12000 octets\r\n" ^ long ^ "\r\n.\r\n";
        "+OK 2 12002\r\n";
        "+OK 2 octets\r\nhi\r\n.\r\n";
        "+OK 2 messages\r\n1 12000\r\n2 2\r\n.\r\n";
        "-ERR no such message\r\n";
        "-ERR unknown command\r\n";
        "+OK bye\r\n";
      ]
  in
  let mono, _ = raw_session ~users Mono request in
  let wedge, _ = raw_session ~users Wedge request in
  check Alcotest.string "mono transcript is exactly the replies" expected mono;
  check Alcotest.string "wedge transcript = mono transcript" mono wedge

(* Host words of one warm RETR of an 8 KiB mail from the partitioned
   server, client included: the handler copies the mail once, from the
   mail buffer straight into the connection's reply buffer, which the
   warm RETR reuses (3,311 words now; 4,376 with a fresh reply buffer
   per reply).  One more copy of the mail — the handler reading it into
   a string first — adds 1,026 words and fails the bound. *)
let test_one_host_copy_per_retr () =
  let mail = String.init 8192 (fun i -> Char.chr (i land 0xff)) in
  let users = [ { Pop3_env.name = "dave"; uid = 1004; password = "diver"; mails = [ mail ] } ] in
  let words =
    with_session ~users Wedge (fun c ->
        if not (Pop3_client.login c ~user:"dave" ~password:"diver") then Alcotest.fail "login";
        let retr () =
          match Pop3_client.retr c 1 with
          | Some m when m = mail -> ()
          | _ -> Alcotest.fail "RETR 1 did not return the mail"
        in
        retr ();
        let w0 = host_words () in
        retr ();
        host_words () -. w0)
  in
  if words > 3_400. then Alcotest.failf "warm 8 KiB RETR: %.0f host words (bound 3,400)" words

(* [lookup_line] finds the first line whose name field — the text
   before its first ':' — is exactly [user], as splitting the file into
   lines, and each line at its first ':', does: names that prefix each
   other, a name holding ':' or '\n', the empty name, a last line with
   no '\n' and the empty file. *)
let test_lookup_line_exact () =
  let reference ~passwd_file ~user =
    String.split_on_char '\n' passwd_file
    |> List.find_opt (fun line ->
           match String.index_opt line ':' with
           | Some i -> String.sub line 0 i = user
           | None -> false)
  in
  let files =
    [
      "";
      "\n";
      "al:1:s:h\nalice:2:s:h\n";
      "alice:2:s:h\nal:1:s:h";
      "alice:2:s:h\nalice:3:s:h\n";
      ":0:s:h\nbob:5:s:h";
      "noname\nalice\nalice:7:x:y";
      "alice::x\n\nbob:1";
      "x:alice:1\nalice";
      "al\nalice:9:s:h";
    ]
  in
  let users =
    [ "al"; "alice"; "alic"; "alice:"; "alice:2"; ""; "bob"; "b"; "x"; "noname"; "al\nalice"; "\n" ]
  in
  List.iter
    (fun passwd_file ->
      List.iter
        (fun user ->
          check
            Alcotest.(option string)
            (Printf.sprintf "%S in %S" user passwd_file)
            (reference ~passwd_file ~user)
            (Pop3_env.lookup_line ~passwd_file ~user))
        users)
    files

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

(* The master holds every privilege from its first kernel entry, the
   greeting write, so the payload takes over there. *)
let test_mono_exploit_loses_everything () =
  let loot = Attacker.loot_create () in
  let ran = ref false in
  ignore
    (with_session Mono ~arm:(Sweep.arm ~where:W.Master ~at:1 ran (payload loot)) (fun _ -> ()));
  check Alcotest.bool "payload ran" true !ran;
  check Alcotest.bool "passwd stolen" true (Attacker.stolen loot ~label:"passwd" <> None);
  check Alcotest.bool "bob's mail stolen" true (Attacker.stolen loot ~label:"bob-mail" <> None)

(* The client handler is the connection's first child; each blocked
   claim below is swept over every one of its kernel entries. *)
let test_wedge_exploit_contained () =
  let fired =
    Sweep.entries (fun at ->
        let loot = Attacker.loot_create () in
        let ran = ref false in
        ignore
          (with_session Wedge
             ~arm:(Sweep.arm ~where:(W.Child 1) ~at ran (payload loot))
             functional_script);
        check Alcotest.int (Printf.sprintf "entry %d: nothing stolen" at) 0 (Attacker.count loot);
        !ran)
  in
  check Alcotest.bool "payload ran" true (fired > 0)

let test_wedge_exploit_cannot_read_uid_or_escalate () =
  (* The uid tag is the first tag allocated for the connection, so its
     segment starts at the base of the tag region; the exploited worker
     attempts to read it directly. *)
  let fired =
    Sweep.entries (fun at ->
        let stolen_uid = ref `Untried and target = ref None in
        let ran = ref false in
        ignore
          (with_session Wedge
             ~arm:
               (Sweep.arm ~where:(W.Child 1) ~at ran (fun ctx ->
                    (* The worker knows tag addresses are in the tag
                       region; attempt to read the uid block region
                       directly. *)
                    let base = Wedge_kernel.Layout.tag_base in
                    target :=
                      Option.map
                        (fun (t : Wedge_mem.Tag.t) -> t.Wedge_mem.Tag.name)
                        (W.find_tag_by_addr (W.app_of ctx) base);
                    match Attacker.try_read ctx ~addr:base ~len:8 with
                    | Ok _ -> stolen_uid := `Read
                    | Error _ -> stolen_uid := `Denied))
             functional_script);
        if !ran then begin
          check (Alcotest.option Alcotest.string)
            (Printf.sprintf "entry %d: the probed address is the uid tag" at)
            (Some "pop3.uid") !target;
          check Alcotest.bool
            (Printf.sprintf "entry %d: uid tag unreadable from worker" at)
            true (!stolen_uid = `Denied)
        end;
        !ran)
  in
  check Alcotest.bool "payload ran" true (fired > 0)

let test_wedge_auth_not_bypassable_after_exploit () =
  (* Even with attacker code running in the worker, RETR before login still
     fails: the mailbox gate trusts only the uid tag, which the worker
     cannot write. *)
  let fired =
    Sweep.entries (fun at ->
        let ran = ref false in
        let mail =
          with_session Wedge
            ~arm:(Sweep.arm ~where:(W.Child 1) ~at ran (fun _ctx -> ()))
            (fun c -> Pop3_client.retr c 1)
        in
        check Alcotest.bool (Printf.sprintf "entry %d: still unauthenticated" at) true (mail = None);
        !ran)
  in
  check Alcotest.bool "payload ran" true (fired > 0)

let test_wedge_sessions_isolated () =
  (* Two sequential connections: the second starts unauthenticated and the
     per-connection tags were scrubbed. *)
  let _, _, main = mk_env () in
  Fiber.run (fun () ->
      let ep1, sep1 = Chan.pair ~costs:Cost_model.free () in
      Fiber.spawn (fun () -> Pop3_wedge.serve_connection main sep1);
      let c1 = Pop3_client.connect ep1 in
      ignore (Pop3_client.login c1 ~user:"alice" ~password:"wonderland");
      Pop3_client.quit c1;
      Chan.close ep1;
      let ep2, sep2 = Chan.pair ~costs:Cost_model.free () in
      Fiber.spawn (fun () -> Pop3_wedge.serve_connection main sep2);
      let c2 = Pop3_client.connect ep2 in
      let mail = Pop3_client.retr c2 1 in
      check Alcotest.bool "fresh session unauthenticated" true (mail = None);
      Pop3_client.quit c2;
      Chan.close ep2)

(* ---------- a long-lived master forgets what it served ---------- *)

let test_master_forgets_served_connections () =
  (* The master outlives every connection: its per-connection callgates
     and closed descriptors (with the channel buffers behind them) must
     go when the connection does, or its memory grows with every client
     it ever served. *)
  let k, app, main = mk_env () in
  let l = Chan.listener ~costs:Cost_model.free ~backlog:4 () in
  let guard =
    Guard.create ~reactor:(Wedge_sim.Reactor.create ~clock:k.Kernel.clock ()) ~max_conns:4 ()
  in
  let gates_before = Hashtbl.length app.Engine.gates in
  let fds_words () = Obj.reachable_words (Obj.repr (W.proc main).Wedge_kernel.Process.fds) in
  let at_100 = ref 0 and at_1000 = ref 0 in
  Fiber.run (fun () ->
      Fiber.spawn (fun () -> Service.serve_loop Pop3_wedge.service main guard l);
      for i = 1 to 1000 do
        let ep = Chan.connect l in
        let c = Pop3_client.connect ep in
        if not (Pop3_client.login c ~user:"alice" ~password:"wonderland") then
          Alcotest.failf "connection %d: login refused" i;
        Pop3_client.quit c;
        Chan.close ep;
        Fiber.wait_until ~what:"connection released" (fun () -> Guard.active guard = 0);
        if i = 100 then at_100 := fds_words ();
        if i = 1000 then at_1000 := fds_words ()
      done;
      Guard.drain guard l);
  check Alcotest.int "callgates back to the pre-serve count" gates_before
    (Hashtbl.length app.Engine.gates);
  let growth_bytes = (!at_1000 - !at_100) * (Sys.word_size / 8) in
  if growth_bytes >= 1024 then
    Alcotest.failf "master fd table grew %d bytes from connection 100 to 1000" growth_bytes

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
          Alcotest.test_case "one write per reply" `Quick test_one_write_per_reply;
          Alcotest.test_case "message number out of range" `Quick
            test_message_number_out_of_range;
          Alcotest.test_case "client refuses a hostile length" `Quick
            test_client_refuses_hostile_length;
          Alcotest.test_case "empty and largest RETR identical" `Quick
            test_retr_edge_sizes_identical;
          Alcotest.test_case "no residue from a longer reply" `Quick
            test_no_residue_from_longer_reply;
          Alcotest.test_case "one host copy per RETR" `Quick test_one_host_copy_per_retr;
          Alcotest.test_case "lookup_line exact names" `Quick test_lookup_line_exact;
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
      ( "resources",
        [
          Alcotest.test_case "master forgets served connections" `Quick
            test_master_forgets_served_connections;
        ] );
    ]
