(* OpenSSH partitioned with Wedge (§5.2, Figure 6): all three
   authentication methods, the username-probing lesson, and the PAM
   scratch-memory lesson against the fork-based privilege-separation
   baseline.

   Run with:  dune exec examples/ssh_login.exe *)

module Kernel = Wedge_kernel.Kernel
module Layout = Wedge_kernel.Layout
module Fiber = Wedge_sim.Fiber
module Chan = Wedge_net.Chan
module Attacker = Wedge_net.Attacker
module Drbg = Wedge_crypto.Drbg
module Rsa = Wedge_crypto.Rsa
module Dsa = Wedge_crypto.Dsa
module W = Wedge_core.Wedge
module Env = Wedge_sshd.Sshd_env
module Privsep = Wedge_sshd.Sshd_privsep
module Wedge_d = Wedge_sshd.Sshd_wedge
module Client = Wedge_sshd.Ssh_client

let with_conn env serve f =
  let out = ref None in
  Fiber.run (fun () ->
      let client_ep, server_ep = Chan.pair () in
      Fiber.spawn (fun () -> serve env server_ep);
      match
        Client.start ~rng:(Drbg.create ~seed:11) ~pinned_rsa:env.Env.host_rsa.Rsa.pub
          ~pinned_dsa:env.Env.host_dsa.Dsa.pub client_ep
      with
      | Error e -> failwith e
      | Ok conn ->
          out := Some (f conn);
          Client.close conn);
  Option.get !out

let wedge env ep = ignore (Wedge_d.serve_connection env ep)

let () =
  let k = Kernel.create () in
  let env = Env.install k in
  print_endline "== Wedge-partitioned sshd: three authentication methods ==";
  let alice = List.hd env.Env.users in
  Printf.printf "  password:   %b\n"
    (with_conn env wedge (fun c -> Client.authenticate c ~user:"alice" (Client.Password "wonderland")));
  Printf.printf "  DSA pubkey: %b\n"
    (with_conn env wedge (fun c ->
         Client.authenticate c ~user:"alice" (Client.Pubkey (Env.user_key alice))));
  Printf.printf "  S/Key OTP:  %b\n"
    (with_conn env wedge (fun c -> Client.authenticate c ~user:"alice" (Client.Skey "rabbit hole")));
  Printf.printf "  shell runs as: %s\n"
    (Option.value ~default:"?" (with_conn env wedge (fun c ->
         ignore (Client.authenticate c ~user:"alice" (Client.Password "wonderland"));
         Client.exec c "shell")));

  print_endline "\n== lesson 1: username probing (S/Key challenges over the network) ==";
  let probe name serve =
    let known, unknown =
      with_conn env serve (fun c ->
          ( Client.skey_challenge_for c ~user:"alice" <> None,
            Client.skey_challenge_for c ~user:"mallory" <> None ))
    in
    Printf.printf "  %-28s alice -> challenge:%b   mallory -> challenge:%b%s\n" name known
      unknown
      (if known <> unknown then "   <- existence leaked!" else "   (indistinguishable)")
  in
  probe "privsep (pre-fix behaviour):" (fun env ep -> ignore (Privsep.serve_connection env ep));
  probe "wedge (dummy challenges):" wedge;

  print_endline "\n== lesson 2: PAM scratch memory across fork ==";
  let hunt ctx =
    let found = ref false in
    for page = 0 to Layout.heap_pages - 1 do
      match Attacker.try_read ctx ~addr:(Layout.heap_base + (page * 4096)) ~len:4096 with
      | Ok data ->
          let needle = "wonderland" in
          let nl = String.length needle and hl = String.length data in
          let rec go i = i + nl <= hl && (String.sub data i nl = needle || go (i + 1)) in
          if go 0 then found := true
      | Error _ -> ()
    done;
    !found
  in
  (* Connection 1 authenticates alice; connection 2 is exploited: its
     network-facing compartment, the connection's first child, is taken
     over at its first read of client input — the forked slave's 3rd
     kernel entry (after its own setuid and its version banner), the
     Wedge worker's 2nd (after its banner). *)
  ignore
    (with_conn env (fun env ep -> ignore (Privsep.serve_connection env ep)) (fun c ->
         Client.authenticate c ~user:"alice" (Client.Password "wonderland")));
  let stolen = ref false in
  W.takeover env.Env.app ~where:(W.Child 1) ~at:3 (fun ctx -> stolen := hunt ctx);
  ignore
    (with_conn env
       (fun env ep -> ignore (Privsep.serve_connection env ep))
       (fun c -> Client.exec c "shell"));
  Printf.printf "  privsep slave (forked): previous user's password in heap: %b\n" !stolen;
  let stolen_w = ref false in
  ignore
    (with_conn env (fun env ep -> wedge env ep) (fun c ->
         Client.authenticate c ~user:"alice" (Client.Password "wonderland")));
  W.takeover env.Env.app ~where:(W.Child 1) ~at:2 (fun ctx -> stolen_w := hunt ctx);
  ignore (with_conn env (fun env ep -> wedge env ep) (fun c -> Client.exec c "shell"));
  Printf.printf "  wedge worker (no inheritance): previous user's password in heap: %b\n" !stolen_w;
  print_endline "\nSthreads inherit no memory, so there is nothing to scrub (paper, 5.2)."
