(* The paper's headline experiment (§5.1.2): a man-in-the-middle passively
   forwards a legitimate client's SSL handshake while an exploit runs in
   the server's network-facing compartment.

   Against the Figure 2 partitioning the worker holds the session key, so
   the exploit leaks it and the attacker decrypts the captured traffic.
   Against the Figures 3-5 partitioning the handshake sthread holds no key
   material at all, and the attack collapses.

   Run with:  dune exec examples/https_mitm.exe *)

module Kernel = Wedge_kernel.Kernel
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
module Simple = Wedge_httpd.Httpd_simple
module Mitm_httpd = Wedge_httpd.Httpd_mitm
module Client = Wedge_httpd.Https_client

(* The exploit payload: dump every tag segment the compartment can read. *)
let dump_readable_tags loot ctx =
  List.iter
    (fun (tag : Tag.t) ->
      ignore (Attacker.steal_tag ctx loot ~label:tag.Tag.name tag))
    (W.live_tags (W.app_of ctx))

(* Offline: hunt the loot for a serialised record-key state and replay the
   captured server->client records through it. *)
let try_decrypt loot capture =
  let candidates = ref [] in
  List.iter
    (fun label ->
      match Attacker.stolen loot ~label with
      | None -> ()
      | Some data ->
          let n = String.length data in
          let rec scan i =
            if i + 4 + Record.state_size <= n then begin
              let len =
                Char.code data.[i] lor (Char.code data.[i+1] lsl 8)
                lor (Char.code data.[i+2] lsl 16) lor (Char.code data.[i+3] lsl 24)
              in
              if len = Record.state_size then
                candidates := Bytes.of_string (String.sub data (i + 4) len) :: !candidates;
              scan (i + 1)
            end
          in
          scan 0)
    (Attacker.labels loot);
  let swap b =
    Record.of_bytes
      (Bytes.concat Bytes.empty
         [ Bytes.sub b 32 32; Bytes.sub b 0 32; Bytes.sub b (64+258) 258;
           Bytes.sub b 64 258; Bytes.sub b (64+524) 8; Bytes.sub b (64+516) 8 ])
  in
  List.concat_map
    (fun ks ->
      let keys = swap ks in
      Wire.parse_frames capture
      |> List.filter_map (fun (t, record) ->
             if t = Wire.App_data || t = Wire.Finished then
               match Record.open_ keys record with
               | Some pt when t = Wire.App_data -> Some (Bytes.to_string pt)
               | _ -> None
             else None))
    !candidates

let attack name serve =
  Printf.printf "== man-in-the-middle + exploit vs %s ==\n" name;
  let k = Kernel.create () in
  let env = Env.install k in
  let mitm = Mitm.create () in
  let loot = Attacker.loot_create () in
  (* The exploit takes over the network-facing compartment, the
     connection's first child, at its 9th kernel entry: in the Figure 2
     worker the 8th is the setup_session_key callgate that returns the
     session key into its argument block, so the 9th is the first entry
     at which the key is there to leak. *)
  W.takeover env.Env.app ~where:(W.Child 1) ~at:9 (dump_readable_tags loot);
  Fiber.run (fun () ->
      let client_ep, mitm_client = Chan.pair () in
      let mitm_server, server_ep = Chan.pair () in
      Mitm.splice mitm ~client_side:mitm_client ~server_side:mitm_server;
      Fiber.spawn (fun () -> serve env server_ep);
      let r =
        Client.get ~rng:(Drbg.create ~seed:7) ~pinned:env.Env.priv.Rsa.pub
          ~path:"/index.html" client_ep
      in
      match r.Client.response with
      | Some { Wedge_httpd.Http.status; body } ->
          Printf.printf "  legitimate client: HTTP %d, %d bytes (MITM was passive)\n" status
            (String.length body)
      | None -> print_endline "  legitimate client failed");
  Printf.printf "  exploit leaked %d readable region(s): %s\n" (Attacker.count loot)
    (String.concat ", " (Attacker.labels loot));
  (match try_decrypt loot (Mitm.captured mitm Mitm.Server_to_client) with
  | [] -> print_endline "  attacker decrypts captured traffic: FAILED - no key material leaked"
  | pts ->
      List.iter
        (fun pt ->
          Printf.printf "  attacker DECRYPTED the captured response: %S...\n"
            (String.sub pt 0 (min 40 (String.length pt))))
        pts);
  print_newline ()

let () =
  attack "the simple partitioning (Figure 2)" (fun env ep ->
      Simple.serve_connection env ep);
  attack "the MITM partitioning (Figures 3-5)" (fun env ep ->
      Mitm_httpd.serve_connection env ep);
  print_endline
    "The finer partitioning denies the network-facing compartment both the session\n\
     key and any encryption/decryption oracle for it - the attacker ends up outside\n\
     the protected channel (paper, end of 5.1.2)."
