(* Failure injection: random garbage thrown at each server's network-facing
   compartment must never crash the master or poison the application —
   after every fuzz connection the server still serves a legitimate client.
   Plus chroot-escape attempts against the VFS. *)

module Kernel = Wedge_kernel.Kernel
module Cost_model = Wedge_sim.Cost_model
module Vfs = Wedge_kernel.Vfs
module Fiber = Wedge_sim.Fiber
module Chan = Wedge_net.Chan
module Drbg = Wedge_crypto.Drbg
module Rsa = Wedge_crypto.Rsa
module Dsa = Wedge_crypto.Dsa
module W = Wedge_core.Wedge

let check = Alcotest.check

let garbage_gen =
  QCheck.string_of_size (QCheck.Gen.int_range 0 400)

(* Send raw bytes at a server, close, and confirm the serve fiber ends. *)
let throw_garbage serve garbage =
  Fiber.run (fun () ->
      let client_ep, server_ep = Chan.pair ~costs:Cost_model.free () in
      Fiber.spawn (fun () -> serve server_ep);
      if String.length garbage > 0 then Chan.write_string client_ep garbage;
      Chan.close client_ep;
      (* drain whatever the server says, until it closes *)
      let rec drain () = if Bytes.length (Chan.read client_ep 512) > 0 then drain () in
      (try drain () with Fiber.Deadlock _ -> ()))

(* ---------- httpd ---------- *)

let prop_httpd_survives_garbage =
  QCheck.Test.make ~name:"httpd: garbage never kills the master" ~count:40 garbage_gen
    (fun garbage ->
      let k = Kernel.create ~costs:Cost_model.free () in
      let env = Wedge_httpd.Httpd_env.install ~image_pages:80 k in
      throw_garbage
        (fun ep -> Wedge_httpd.Httpd_mitm.serve_connection env ep)
        garbage;
      (* The master survived: a legitimate request still works. *)
      let ok = ref false in
      Fiber.run (fun () ->
          let client_ep, server_ep = Chan.pair ~costs:Cost_model.free () in
          Fiber.spawn (fun () -> Wedge_httpd.Httpd_mitm.serve_connection env server_ep);
          let r =
            Wedge_httpd.Https_client.get ~rng:(Drbg.create ~seed:5)
              ~pinned:env.Wedge_httpd.Httpd_env.priv.Rsa.pub ~path:"/index.html" client_ep
          in
          ok := r.Wedge_httpd.Https_client.response <> None);
      !ok)

(* Garbage wrapped in VALID wire frames reaches deeper parsing layers. *)
let prop_httpd_survives_framed_garbage =
  QCheck.Test.make ~name:"httpd: well-framed junk handled" ~count:40
    QCheck.(pair (int_range 0 6) garbage_gen)
    (fun (ty, payload) ->
      let k = Kernel.create ~costs:Cost_model.free () in
      let env = Wedge_httpd.Httpd_env.install ~image_pages:80 k in
      let types = [ 'h'; 'H'; 'C'; 'K'; 'F'; 'D'; 'A' ] in
      let t = List.nth types (ty mod List.length types) in
      let n = min (String.length payload) 0xffff in
      let frame =
        Printf.sprintf "%c%c%c%s" t
          (Char.chr ((n lsr 8) land 0xff))
          (Char.chr (n land 0xff))
          (String.sub payload 0 n)
      in
      throw_garbage
        (fun ep -> Wedge_httpd.Httpd_mitm.serve_connection env ep)
        frame;
      true)

(* ---------- sshd ---------- *)

let prop_sshd_survives_garbage =
  QCheck.Test.make ~name:"sshd: garbage never kills the master" ~count:30 garbage_gen
    (fun garbage ->
      let k = Kernel.create ~costs:Cost_model.free () in
      let env = Wedge_sshd.Sshd_env.install ~image_pages:80 k in
      throw_garbage
        (fun ep -> Wedge_sshd.Sshd_wedge.serve_connection env ep)
        garbage;
      let ok = ref false in
      Fiber.run (fun () ->
          let client_ep, server_ep = Chan.pair ~costs:Cost_model.free () in
          Fiber.spawn (fun () -> Wedge_sshd.Sshd_wedge.serve_connection env server_ep);
          (match
             Wedge_sshd.Ssh_client.login ~rng:(Drbg.create ~seed:6)
               ~pinned_rsa:env.Wedge_sshd.Sshd_env.host_rsa.Rsa.pub
               ~pinned_dsa:env.Wedge_sshd.Sshd_env.host_dsa.Dsa.pub ~user:"alice"
               (Wedge_sshd.Ssh_client.Password "wonderland") client_ep
           with
          | Ok conn ->
              ok := true;
              Wedge_sshd.Ssh_client.close conn
          | Error _ -> ()));
      !ok)

(* ---------- pop3 ---------- *)

let prop_pop3_survives_garbage =
  QCheck.Test.make ~name:"pop3: garbage never kills the master" ~count:30 garbage_gen
    (fun garbage ->
      let k = Kernel.create ~costs:Cost_model.free () in
      Wedge_pop3.Pop3_env.install k Wedge_pop3.Pop3_env.default_users;
      let app = W.create_app k in
      W.boot app;
      let main = W.main_ctx app in
      throw_garbage
        (fun ep -> Wedge_pop3.Pop3_wedge.serve_connection main ep)
        garbage;
      let ok = ref false in
      Fiber.run (fun () ->
          let client_ep, server_ep = Chan.pair ~costs:Cost_model.free () in
          Fiber.spawn (fun () -> Wedge_pop3.Pop3_wedge.serve_connection main server_ep);
          let c = Wedge_pop3.Pop3_client.connect client_ep in
          ok := Wedge_pop3.Pop3_client.login c ~user:"alice" ~password:"wonderland";
          Wedge_pop3.Pop3_client.quit c;
          Chan.close client_ep);
      !ok)

(* ---------- gate argument-protocol fuzzing ---------- *)

(* An exploited worker controls the argument buffer bytes completely; the
   callgates must treat them as hostile: no crash, no privilege change.
   This also exercises the oversized length-value guard (a fabricated
   0xFFFFFFF length must fault inside the gate, not OOM the host). *)
let prop_sshd_gates_survive_hostile_argbuf =
  QCheck.Test.make ~name:"sshd gates survive hostile argument buffers" ~count:25
    QCheck.(pair (int_range 0 1_000_000) (string_of_size (Gen.int_range 0 600)))
    (fun (seed, junk) ->
      let k = Kernel.create ~costs:Cost_model.free () in
      let env = Wedge_sshd.Sshd_env.install ~image_pages:80 k in
      let authed_shell = ref None in
      let ran = ref false in
      (* Entry 11 of the worker: its 10th is the rsa_kex callgate, so the
         11th, the read of the first message after the key exchange, is
         the last entry before an authentication gate reads the argument
         block. *)
      Sweep.arm ~where:(W.Child 1) ~at:11 ran
        (fun ctx ->
          (* Overwrite the worker's whole argument area with junk and
             fabricated huge length fields, then poke every address that
             might be a length-value block. *)
          let rng2 = Drbg.create ~seed in
          let tags = W.live_tags (W.app_of ctx) in
          List.iter
            (fun (tag : Wedge_mem.Tag.t) ->
              if tag.Wedge_mem.Tag.name = "sshd.arg" then begin
                let base = tag.Wedge_mem.Tag.base in
                try
                  W.write_string ctx (base + 40) junk;
                  (* plant absurd lv lengths at the protocol offsets the
                     gates will read *)
                  List.iter
                    (fun off -> W.write_u32 ctx (base + 40 + off) 0xFFFFFFF)
                    [ 0; 256; 512; 1024; 1280 ];
                  ignore (Drbg.next64 rng2)
                with Wedge_kernel.Vm.Fault _ -> ()
              end)
            tags)
        env.Wedge_sshd.Sshd_env.app;
      Fiber.run (fun () ->
          let client_ep, server_ep = Chan.pair ~costs:Cost_model.free () in
          Fiber.spawn (fun () ->
              Wedge_sshd.Sshd_wedge.serve_connection env server_ep);
          (match
             Wedge_sshd.Ssh_client.start ~rng:(Drbg.create ~seed:9)
               ~pinned_rsa:env.Wedge_sshd.Sshd_env.host_rsa.Rsa.pub
               ~pinned_dsa:env.Wedge_sshd.Sshd_env.host_dsa.Dsa.pub client_ep
           with
          | Ok conn ->
              (* the worker is taken over; try the auth methods with junk *)
              ignore
                (Wedge_sshd.Ssh_client.authenticate conn ~user:junk
                   (Wedge_sshd.Ssh_client.Password junk));
              authed_shell := Wedge_sshd.Ssh_client.exec conn "shell";
              Wedge_sshd.Ssh_client.close conn
          | Error _ -> ());
          Chan.close client_ep);
      (* the payload ran; never authenticated, master alive for a real
         login *)
      !ran
      && (!authed_shell = Some "permission denied"
      || !authed_shell = None
         &&
         let ok = ref false in
         Fiber.run (fun () ->
             let c2, s2 = Chan.pair ~costs:Cost_model.free () in
             Fiber.spawn (fun () ->
                 Wedge_sshd.Sshd_wedge.serve_connection env s2);
             (match
                Wedge_sshd.Ssh_client.login ~rng:(Drbg.create ~seed:10)
                  ~pinned_rsa:env.Wedge_sshd.Sshd_env.host_rsa.Rsa.pub
                  ~pinned_dsa:env.Wedge_sshd.Sshd_env.host_dsa.Dsa.pub ~user:"alice"
                  (Wedge_sshd.Ssh_client.Password "wonderland") c2
              with
             | Ok conn ->
                 ok := true;
                 Wedge_sshd.Ssh_client.close conn
             | Error _ -> ()));
         !ok))

let test_oversized_lv_faults_not_allocates () =
  (* Directly: a fabricated huge length must raise Vm.Fault quickly. *)
  let k = Kernel.create ~costs:Cost_model.free () in
  let app = W.create_app k in
  W.boot app;
  let main = W.main_ctx app in
  let t = W.tag_new main in
  let a = W.smalloc main 64 t in
  W.write_u32 main a 0xFFFFFFF;
  match W.read_lv main a with
  | _ -> Alcotest.fail "expected fault"
  | exception Wedge_kernel.Vm.Fault f ->
      check Alcotest.bool "reason mentions oversized" true
        (let s = Wedge_kernel.Vm.fault_to_string f in
         let rec has i =
           i + 9 <= String.length s && (String.sub s i 9 = "oversized" || has (i + 1))
         in
         has 0)

(* A length below [Vm.max_read] that runs past the caller's mapping: a
   32 MiB prefix over a one-page tag.  The read must fault at the first
   page past the tag, as the copy would, without first allocating the
   32 MiB it could never fill. *)
let test_unmapped_lv_faults_not_allocates () =
  let k = Kernel.create ~costs:Cost_model.free () in
  let app = W.create_app k in
  W.boot app;
  let main = W.main_ctx app in
  let t = W.tag_new main in
  let a = W.smalloc main 64 t in
  let sc = W.sc_create () in
  W.sc_mem_add sc t Wedge_kernel.Prot.RW;
  let outcome = ref None and words = ref 0. in
  Fiber.run (fun () ->
      ignore
        (W.sthread_join main
           (W.sthread_create main sc
              (fun ctx _ ->
                W.write_u32 ctx a (32 * 1024 * 1024);
                let host_words () =
                  let _, promoted, major = Gc.counters () in
                  Gc.minor_words () +. (major -. promoted)
                in
                let w0 = host_words () in
                (outcome :=
                   match W.read_lv ctx a with
                   | _ -> None
                   | exception Wedge_kernel.Vm.Fault f -> Some f);
                words := host_words () -. w0;
                0)
              0)));
  match !outcome with
  | None -> Alcotest.fail "expected a fault"
  | Some f ->
      check Alcotest.int "faults at the first page past the tag"
        (t.Wedge_mem.Tag.base + (t.Wedge_mem.Tag.pages * Wedge_kernel.Physmem.page_size))
        f.Wedge_kernel.Vm.addr;
      check Alcotest.string "as an unmapped page" "unmapped page" f.Wedge_kernel.Vm.reason;
      if !words >= 512. then
        Alcotest.failf "read_lv allocated %.0f host words before faulting (bound 512)" !words

(* ---------- vfs traversal ---------- *)

let test_chroot_cannot_be_escaped () =
  let v = Vfs.create () in
  Vfs.install v ~uid:0 ~mode:0o600 "/etc/shadow" "secret";
  Vfs.mkdir_p v "/jail";
  Vfs.install v "/jail/hello" "world";
  List.iter
    (fun path ->
      check Alcotest.bool (path ^ " stays jailed") true
        (match Vfs.read_file v ~root:"/jail" ~uid:0 path with
        | Ok data -> data <> "secret"
        | Error _ -> true))
    [
      "/../etc/shadow";
      "../etc/shadow";
      "/../../etc/shadow";
      "/./../etc/shadow";
      "//../etc/shadow";
      "/etc/../../etc/shadow";
    ]

let test_pop3_path_injection () =
  (* A username crafted as a path must not escape the maildir scheme. *)
  let k = Kernel.create ~costs:Cost_model.free () in
  Wedge_pop3.Pop3_env.install k Wedge_pop3.Pop3_env.default_users;
  let app = W.create_app k in
  W.boot app;
  let main = W.main_ctx app in
  let logged = ref true in
  Fiber.run (fun () ->
      let client_ep, server_ep = Chan.pair ~costs:Cost_model.free () in
      Fiber.spawn (fun () -> Wedge_pop3.Pop3_wedge.serve_connection main server_ep);
      let c = Wedge_pop3.Pop3_client.connect client_ep in
      logged := Wedge_pop3.Pop3_client.login c ~user:"../etc" ~password:"x";
      Wedge_pop3.Pop3_client.quit c;
      Chan.close client_ep);
  check Alcotest.bool "path-shaped username rejected" false !logged

let qcheck tests = List.map Test_rng.to_alcotest tests

let () =
  Alcotest.run "wedge_fuzz"
    [
      ( "garbage-input",
        qcheck
          [
            prop_httpd_survives_garbage;
            prop_httpd_survives_framed_garbage;
            prop_sshd_survives_garbage;
            prop_pop3_survives_garbage;
          ] );
      ( "gate-argbuf",
        qcheck [ prop_sshd_gates_survive_hostile_argbuf ]
        @ [
            Alcotest.test_case "oversized lv faults" `Quick
              test_oversized_lv_faults_not_allocates;
            Alcotest.test_case "unmapped lv faults unallocated" `Quick
              test_unmapped_lv_faults_not_allocates;
          ] );
      ( "path-traversal",
        [
          Alcotest.test_case "chroot not escapable" `Quick test_chroot_cannot_be_escaped;
          Alcotest.test_case "pop3 path injection" `Quick test_pop3_path_injection;
        ] );
    ]
