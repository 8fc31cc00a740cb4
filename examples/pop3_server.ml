(* The paper's §2 motivating example, live: a POP3 server partitioned as in
   Figure 1, attacked through its command parser, side by side with the
   monolithic server falling to the same exploit.

   Run with:  dune exec examples/pop3_server.exe *)

module Kernel = Wedge_kernel.Kernel
module Fiber = Wedge_sim.Fiber
module Chan = Wedge_net.Chan
module Attacker = Wedge_net.Attacker
module W = Wedge_core.Wedge
module Env = Wedge_pop3.Pop3_env
module Mono = Wedge_pop3.Pop3_mono
module Wedge_pop = Wedge_pop3.Pop3_wedge
module Client = Wedge_pop3.Pop3_client

let payload loot ctx =
  (match W.vfs_read ctx Env.passwd_path with
  | Ok data -> Attacker.grab loot ~label:"password database" data
  | Error _ -> ());
  match W.vfs_read ctx (Env.maildir "bob" ^ "/1.eml") with
  | Ok data -> Attacker.grab loot ~label:"bob's mail" data
  | Error _ -> ()

(* The attacker takes over the compartment that parses commands
   ([where]: the monolithic server's one process, or Figure 1's client
   handler, the connection's first child) at its 10th kernel entry: the
   read of the command that follows alice's RETR. *)
let session name where serve =
  Printf.printf "== %s ==\n" name;
  let k = Kernel.create () in
  Env.install k Env.default_users;
  let app = W.create_app k in
  W.boot app;
  let main = W.main_ctx app in
  let loot = Attacker.loot_create () in
  W.takeover app ~where ~at:10 (payload loot);
  Fiber.run (fun () ->
      let client_ep, server_ep = Chan.pair () in
      Fiber.spawn (fun () -> serve main server_ep);
      let c = Client.connect client_ep in
      Printf.printf "  alice logs in: %b\n" (Client.login c ~user:"alice" ~password:"wonderland");
      (match Client.retr c 1 with
      | Some mail -> Printf.printf "  alice reads her mail (%d bytes)\n" (String.length mail)
      | None -> print_endline "  RETR failed");
      print_endline "  attacker takes over the command parser...";
      Client.quit c;
      Chan.close client_ep);
  (match Attacker.labels loot with
  | [] -> print_endline "  attacker stole: nothing"
  | stolen -> List.iter (fun l -> Printf.printf "  attacker stole: %s\n" l) stolen);
  print_newline ()

let () =
  session "monolithic POP3 server" W.Master (fun main ep -> Mono.serve_connection main ep);
  session "Wedge-partitioned POP3 server (Figure 1)" (W.Child 1) (fun main ep ->
      ignore (Wedge_pop.serve_connection main ep));
  print_endline "Same exploit, same parser: the partitioned server leaks nothing."
