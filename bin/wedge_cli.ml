(* wedge-cli: drive the partitioned applications and their attack
   experiments from the command line.

     wedge_cli pop3  --partition mono|wedge [--attack]
     wedge_cli https --partition mono|simple|mitm [--attack] [--recycled]
     wedge_cli ssh   --partition mono|privsep|wedge [--auth password|pubkey|skey] [--attack]
     wedge_cli stats --partition mitm     # kernel op counters for one request *)

open Cmdliner
module Kernel = Wedge_kernel.Kernel
module Stats = Wedge_sim.Stats
module Fiber = Wedge_sim.Fiber
module Chan = Wedge_net.Chan
module Attacker = Wedge_net.Attacker
module Drbg = Wedge_crypto.Drbg
module Rsa = Wedge_crypto.Rsa
module Dsa = Wedge_crypto.Dsa
module W = Wedge_core.Wedge

let ok b = if b then "ok" else "FAILED"

(* --attack takes over the server's network-facing compartment at its
   [at]-th kernel entry, its first read of client input: the monolithic
   server's one process, or else the connection's first child — the
   worker, the Figures 3-5 handshake sthread or privsep's forked slave. *)
let arm_attack app partition ~at payload =
  W.takeover app ~where:(if partition = "mono" then W.Master else W.Child 1) ~at payload

(* ---------------- pop3 ---------------- *)

let run_pop3 partition attack =
  let k = Kernel.create () in
  Wedge_pop3.Pop3_env.install k Wedge_pop3.Pop3_env.default_users;
  let app = W.create_app k in
  W.boot app;
  let main = W.main_ctx app in
  let loot = Attacker.loot_create () in
  let payload ctx =
    (match W.vfs_read ctx Wedge_pop3.Pop3_env.passwd_path with
    | Ok d -> Attacker.grab loot ~label:"passwd" d
    | Error _ -> ());
    match W.vfs_read ctx (Wedge_pop3.Pop3_env.maildir "bob" ^ "/1.eml") with
    | Ok d -> Attacker.grab loot ~label:"bob-mail" d
    | Error _ -> ()
  in
  if attack then arm_attack app partition ~at:2 payload;
  Fiber.run (fun () ->
      let client_ep, server_ep = Chan.pair () in
      Fiber.spawn (fun () ->
          match partition with
          | "mono" -> Wedge_pop3.Pop3_mono.serve_connection main server_ep
          | _ -> ignore (Wedge_pop3.Pop3_wedge.serve_connection main server_ep));
      let c = Wedge_pop3.Pop3_client.connect client_ep in
      Printf.printf "login alice: %s\n"
        (ok (Wedge_pop3.Pop3_client.login c ~user:"alice" ~password:"wonderland"));
      (match Wedge_pop3.Pop3_client.stat c with
      | Some (n, bytes) -> Printf.printf "STAT: %d messages, %d bytes\n" n bytes
      | None -> print_endline "STAT failed");
      if attack then print_endline "attacker takes over the command parser...";
      Wedge_pop3.Pop3_client.quit c;
      Chan.close client_ep);
  if attack then
    Printf.printf "attacker stole: %s\n"
      (match Attacker.labels loot with [] -> "nothing" | l -> String.concat ", " l);
  0

(* ---------------- https ---------------- *)

let run_https partition attack recycled =
  let k = Kernel.create () in
  let env = Wedge_httpd.Httpd_env.install k in
  let loot = Attacker.loot_create () in
  let payload ctx =
    List.iter
      (fun (tag : Wedge_mem.Tag.t) ->
        ignore (Attacker.steal_tag ctx loot ~label:tag.Wedge_mem.Tag.name tag))
      (W.live_tags (W.app_of ctx))
  in
  let spawn = if recycled then Some W.Recycle else None in
  if attack then arm_attack env.Wedge_httpd.Httpd_env.app partition ~at:1 payload;
  Fiber.run (fun () ->
      let client_ep, server_ep = Chan.pair () in
      Fiber.spawn (fun () ->
          match partition with
          | "mono" -> Wedge_httpd.Httpd_mono.serve_connection env server_ep
          | "simple" -> ignore (Wedge_httpd.Httpd_simple.serve_connection ?spawn env server_ep)
          | _ -> ignore (Wedge_httpd.Httpd_mitm.serve_connection ?spawn env server_ep));
      let r =
        Wedge_httpd.Https_client.get ~rng:(Drbg.create ~seed:1)
          ~pinned:env.Wedge_httpd.Httpd_env.priv.Rsa.pub ~path:"/index.html" client_ep
      in
      match r.Wedge_httpd.Https_client.response with
      | Some { Wedge_httpd.Http.status; body } ->
          Printf.printf "GET /index.html over SSL: HTTP %d (%d bytes)\n" status
            (String.length body)
      | None ->
          Printf.printf "request failed: %s\n"
            (Option.value ~default:"?" r.Wedge_httpd.Https_client.error));
  if attack then
    Printf.printf "exploited compartment could read: %s\n"
      (match Attacker.labels loot with [] -> "nothing" | l -> String.concat ", " l);
  0

(* ---------------- ssh ---------------- *)

let run_ssh partition auth attack =
  let k = Kernel.create () in
  let env = Wedge_sshd.Sshd_env.install k in
  let loot = Attacker.loot_create () in
  let payload ctx =
    (match W.vfs_read ctx Wedge_sshd.Sshd_env.shadow_path with
    | Ok d -> Attacker.grab loot ~label:"shadow" d
    | Error _ -> ());
    match Attacker.try_read ctx ~addr:env.Wedge_sshd.Sshd_env.rsa_addr ~len:32 with
    | Ok d -> Attacker.grab loot ~label:"host-key" d
    | Error _ -> ()
  in
  (* privsep's slave enters the kernel once, for its own setuid, before
     its version banner and first read. *)
  if attack then
    arm_attack env.Wedge_sshd.Sshd_env.app partition
      ~at:(if partition = "privsep" then 3 else 2)
      payload;
  Fiber.run (fun () ->
      let client_ep, server_ep = Chan.pair () in
      Fiber.spawn (fun () ->
          match partition with
          | "mono" -> Wedge_sshd.Sshd_mono.serve_connection env server_ep
          | "privsep" -> ignore (Wedge_sshd.Sshd_privsep.serve_connection env server_ep)
          | _ -> ignore (Wedge_sshd.Sshd_wedge.serve_connection env server_ep));
      let alice = List.hd env.Wedge_sshd.Sshd_env.users in
      let method_ =
        match auth with
        | "pubkey" -> Wedge_sshd.Ssh_client.Pubkey (Wedge_sshd.Sshd_env.user_key alice)
        | "skey" -> Wedge_sshd.Ssh_client.Skey "rabbit hole"
        | _ -> Wedge_sshd.Ssh_client.Password "wonderland"
      in
      match
        Wedge_sshd.Ssh_client.login ~rng:(Drbg.create ~seed:1)
          ~pinned_rsa:env.Wedge_sshd.Sshd_env.host_rsa.Rsa.pub
          ~pinned_dsa:env.Wedge_sshd.Sshd_env.host_dsa.Dsa.pub ~user:"alice" method_ client_ep
      with
      | Error e -> Printf.printf "login failed: %s\n" e
      | Ok conn ->
          Printf.printf "login alice (%s): ok\n" auth;
          (match Wedge_sshd.Ssh_client.exec conn "shell" with
          | Some reply -> Printf.printf "shell: %s\n" reply
          | None -> ());
          Wedge_sshd.Ssh_client.close conn);
  if attack then
    Printf.printf "exploited compartment could read: %s\n"
      (match Attacker.labels loot with [] -> "nothing" | l -> String.concat ", " l);
  0

(* ---------------- stats ---------------- *)

let run_stats partition =
  let k = Kernel.create () in
  let env = Wedge_httpd.Httpd_env.install k in
  Fiber.run (fun () ->
      let client_ep, server_ep = Chan.pair () in
      Fiber.spawn (fun () ->
          match partition with
          | "mono" -> Wedge_httpd.Httpd_mono.serve_connection env server_ep
          | "simple" -> ignore (Wedge_httpd.Httpd_simple.serve_connection env server_ep)
          | _ -> ignore (Wedge_httpd.Httpd_mitm.serve_connection env server_ep));
      ignore
        (Wedge_httpd.Https_client.get ~rng:(Drbg.create ~seed:1)
           ~pinned:env.Wedge_httpd.Httpd_env.priv.Rsa.pub ~path:"/index.html" client_ep));
  Printf.printf "kernel operation counts for one %s request:\n" partition;
  Format.printf "%a@." Stats.pp k.Kernel.stats;
  0

(* ---------------- trace: Chrome-JSON export of a demo run ------------- *)

let run_chrome_trace demo out connections =
  let module Trace = Wedge_sim.Trace in
  let module Metrics = Wedge_sim.Metrics in
  let module Guard = Wedge_net.Guard in
  let module Cost_model = Wedge_sim.Cost_model in
  let k = Kernel.create ~costs:Cost_model.default () in
  let reactor = Wedge_sim.Reactor.create ~clock:k.Kernel.clock () in
  Trace.arm ~capacity:(1 lsl 18) k.Kernel.trace;
  let m = Metrics.create () in
  let serve_httpd () =
    let env = Wedge_httpd.Httpd_env.install ~image_pages:80 k in
    W.register_metrics m env.Wedge_httpd.Httpd_env.app;
    let guard = Guard.create ~reactor ~max_conns:16 ~trace:k.Kernel.trace () in
    Guard.register_metrics m guard;
    Fiber.run (fun () ->
        let l =
          Chan.listener ~clock:k.Kernel.clock ~costs:Cost_model.default
            ~trace:k.Kernel.trace ()
        in
        Chan.register_metrics m l;
        Fiber.spawn (fun () ->
            Guard.accept_loop guard l
              ~reject:(fun _ ep -> Chan.close ep)
              ~serve:(fun conn ->
                ignore (Wedge_httpd.Httpd_simple.serve_connection env (Guard.ep conn))));
        let resolved = ref 0 in
        for i = 1 to connections do
          Fiber.spawn (fun () ->
              Fiber.wait_until ~what:"window" (fun () -> !resolved >= i - 12);
              (match Chan.connect l with
              | exception Chan.Refused _ -> ()
              | ep ->
                  ignore
                    (Wedge_httpd.Https_client.get ~rng:(Drbg.create ~seed:(1000 + i))
                       ~pinned:env.Wedge_httpd.Httpd_env.priv.Rsa.pub ~path:"/index.html"
                       ep));
              incr resolved)
        done;
        Fiber.wait_until ~what:"clients resolved" (fun () -> !resolved = connections);
        Guard.drain guard l)
  in
  let serve_pop3 () =
    Wedge_pop3.Pop3_env.install k Wedge_pop3.Pop3_env.default_users;
    let app = W.create_app k in
    W.boot app;
    let main = W.main_ctx app in
    W.register_metrics m app;
    let guard = Guard.create ~reactor ~max_conns:8 ~trace:k.Kernel.trace () in
    Guard.register_metrics m guard;
    Fiber.run (fun () ->
        let l =
          Chan.listener ~clock:k.Kernel.clock ~costs:Cost_model.default
            ~trace:k.Kernel.trace ()
        in
        Chan.register_metrics m l;
        Fiber.spawn (fun () ->
            Wedge_net.Service.serve_loop Wedge_pop3.Pop3_wedge.service main guard l);
        let resolved = ref 0 in
        for i = 1 to connections do
          Fiber.spawn (fun () ->
              Fiber.wait_until ~what:"window" (fun () -> !resolved >= i - 6);
              (match Chan.connect l with
              | exception Chan.Refused _ -> ()
              | ep ->
                  let c = Wedge_pop3.Pop3_client.connect ep in
                  ignore
                    (Wedge_pop3.Pop3_client.login c ~user:"alice" ~password:"wonderland");
                  ignore (Wedge_pop3.Pop3_client.stat c);
                  Wedge_pop3.Pop3_client.quit c;
                  Chan.close ep);
              incr resolved)
        done;
        Fiber.wait_until ~what:"clients resolved" (fun () -> !resolved = connections);
        Guard.drain guard l)
  in
  (match demo with "pop3" -> serve_pop3 () | _ -> serve_httpd ());
  let json = Trace.to_chrome_json k.Kernel.trace in
  match Trace.validate_chrome_json json with
  | Error e ->
      Printf.eprintf "trace: export failed schema validation: %s\n" e;
      1
  | Ok () ->
      let oc = open_out out in
      output_string oc json;
      close_out oc;
      Printf.printf
        "trace: %d %s connections -> %s (%d events, %d dropped, %d bytes)\n"
        connections demo out (Trace.recorded k.Kernel.trace)
        (Trace.dropped k.Kernel.trace) (String.length json);
      print_endline "load it in chrome://tracing or https://ui.perfetto.dev";
      Printf.printf "metrics: %s\n" (Metrics.to_json m);
      0

(* ---------------- cblog: cb-log + cb-analyze over a saved file -------- *)

let run_cblog out query fn =
  let module Cb_log = Wedge_crowbar.Cb_log in
  let module Cb_analyze = Wedge_crowbar.Cb_analyze in
  let module Trace = Wedge_crowbar.Trace in
  (* cb-log phase: trace one partitioned HTTPS request. *)
  let k = Kernel.create () in
  let env = Wedge_httpd.Httpd_env.install ~image_pages:300 k in
  let log = Cb_log.create () in
  W.set_instr env.Wedge_httpd.Httpd_env.main (Cb_log.instr log);
  Fiber.run (fun () ->
      let client_ep, server_ep = Chan.pair () in
      Fiber.spawn (fun () -> ignore (Wedge_httpd.Httpd_mitm.serve_connection env server_ep));
      ignore
        (Wedge_httpd.Https_client.get ~rng:(Drbg.create ~seed:2)
           ~pinned:env.Wedge_httpd.Httpd_env.priv.Rsa.pub ~path:"/index.html" client_ep));
  Trace.save (Cb_log.trace log) out;
  Printf.printf "cb-log: traced one request to %s (%d accesses, %d segments)\n" out
    (Trace.access_count (Cb_log.trace log))
    (List.length (Trace.segments (Cb_log.trace log)));
  (* cb-analyze phase: reload and query. *)
  match Trace.load out with
  | Error e ->
      Printf.eprintf "cb-analyze: %s\n" e;
      1
  | Ok tr -> (
      let fmt = Format.std_formatter in
      match query with
      | "items" ->
          Printf.printf "memory items used by %s and its descendants:\n" fn;
          Cb_analyze.pp_items fmt (Cb_analyze.items_used_by tr ~fn);
          0
      | "writes" ->
          Printf.printf "write sites of %s and its descendants:\n" fn;
          Cb_analyze.pp_items fmt (Cb_analyze.writes_of tr ~fn);
          0
      | "policy" ->
          Printf.printf "suggested policy for an sthread running %s:\n" fn;
          Cb_analyze.pp_suggestions fmt (Cb_analyze.suggest_policy tr ~fn);
          0
      | "static" ->
          print_endline "static over-approximation (every item the program touches):";
          Cb_analyze.pp_suggestions fmt (Cb_analyze.overapproximate tr);
          0
      | "segments" ->
          List.iter
            (fun s ->
              Printf.printf "  %-26s base 0x%x len %d %s\n"
                (Trace.seg_kind_to_string s.Trace.kind) s.Trace.base s.Trace.len
                (if s.Trace.live then "" else "(freed)"))
            (Trace.segments tr);
          0
      | q ->
          Printf.eprintf "unknown query %S (items|writes|policy|static|segments)\n" q;
          1)

(* ---------------- synth: record -> profile -> enforce ----------------- *)

let run_synth app seed out mode =
  let module Synth = Wedge_crowbar.Synth in
  let module Scenarios = Wedge_check.Scenarios in
  if not (List.mem app Scenarios.synth_apps) then begin
    Printf.eprintf "synth: unknown app %S (%s)\n" app
      (String.concat " | " Scenarios.synth_apps);
    1
  end
  else begin
    (* Record phase: deterministic workload under cb-log, least-privilege
       profile synthesized from the observed accesses. *)
    let profile = Scenarios.synth_record ~app ~seed in
    let ptext = Synth.Profile.print profile in
    (match Synth.Profile.parse ptext with
    | Ok p when Synth.Profile.equal p profile -> ()
    | _ -> failwith "synth: synthesized profile does not round-trip");
    let n_entries = List.length profile.Synth.Profile.p_entries in
    let n_grants = List.length (Synth.grants profile) in
    Printf.printf "synth: recorded %s workload (seed %d): %d entries, %d grants\n"
      app seed n_entries n_grants;
    (match out with
    | "" -> print_string ptext
    | path ->
        let oc = open_out path in
        output_string oc ptext;
        close_out oc;
        Printf.printf "synth: profile written to %s\n" path);
    match mode with
    | `Record -> 0
    | (`Complain | `Enforce) as m ->
        let mode_v, label =
          match m with
          | `Complain -> (Synth.Complain profile, "complain")
          | `Enforce -> (Synth.Enforce profile, "enforce")
        in
        let ok, summary, synth = Scenarios.synth_rerun ~app ~seed mode_v in
        let counts what = function
          | [] -> Printf.sprintf "no %s" what
          | l ->
              Printf.sprintf "%d %s:\n%s"
                (List.fold_left (fun a (_, n) -> a + n) 0 l)
                what
                (String.concat "\n"
                   (List.map (fun (m, n) -> Printf.sprintf "  %4d  %s" n m) l))
        in
        (match m with
        | `Complain ->
            Printf.printf "%s re-run: workload %s (%s); %s\n" label
              (if ok then "ok" else "FAILED")
              summary
              (counts "complaints" (Synth.complaints synth))
        | `Enforce ->
            Printf.printf "%s re-run: workload %s (%s); %s\n" label
              (if ok then "ok" else "FAILED")
              summary
              (counts "denials" (Synth.denials synth)));
        let excess = Synth.diff ~installed:profile ~observed:(Synth.synthesize synth) in
        List.iter (fun d -> Printf.printf "  observed beyond profile: %s\n" d) excess;
        if ok && Synth.denials synth = [] && excess = [] then 0 else 1
  end

(* ---------------- cmdliner plumbing ---------------- *)

let partition_arg choices =
  Arg.(value & opt (enum (List.map (fun c -> (c, c)) choices)) (List.hd choices)
       & info [ "partition"; "p" ] ~doc:(Printf.sprintf "Partitioning: %s" (String.concat ", " choices)))

let attack_arg =
  Arg.(
    value & flag
    & info [ "attack" ]
        ~doc:"Take over the network-facing compartment and run the attack payload in it")
let recycled_arg = Arg.(value & flag & info [ "recycled" ] ~doc:"Use recycled callgates")

let auth_arg =
  Arg.(value & opt (enum [ ("password", "password"); ("pubkey", "pubkey"); ("skey", "skey") ])
         "password"
       & info [ "auth" ] ~doc:"Authentication method")

let pop3_cmd =
  Cmd.v (Cmd.info "pop3" ~doc:"POP3 server demo (paper §2)")
    Term.(const run_pop3 $ partition_arg [ "wedge"; "mono" ] $ attack_arg)

let https_cmd =
  Cmd.v
    (Cmd.info "https" ~doc:"Apache/OpenSSL demo (paper §5.1)")
    Term.(const run_https $ partition_arg [ "mitm"; "simple"; "mono" ] $ attack_arg $ recycled_arg)

let ssh_cmd =
  Cmd.v (Cmd.info "ssh" ~doc:"OpenSSH demo (paper §5.2)")
    Term.(const run_ssh $ partition_arg [ "wedge"; "privsep"; "mono" ] $ auth_arg $ attack_arg)

let stats_cmd =
  Cmd.v
    (Cmd.info "stats" ~doc:"Kernel operation counters for one HTTPS request")
    Term.(const run_stats $ partition_arg [ "mitm"; "simple"; "mono" ])

let trace_cmd =
  let demo =
    Arg.(value & pos 0 (enum [ ("httpd", "httpd"); ("pop3", "pop3") ]) "httpd"
         & info [] ~docv:"DEMO" ~doc:"Workload to trace: httpd | pop3")
  in
  let out =
    Arg.(value & opt string "" & info [ "out"; "o" ] ~doc:"Output path (default DEMO.trace.json)")
  in
  let connections =
    Arg.(value & opt int 100 & info [ "connections"; "n" ] ~doc:"Client connections to drive")
  in
  let run demo out connections =
    let out = if out = "" then demo ^ ".trace.json" else out in
    run_chrome_trace demo out connections
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a demo workload with tracing armed and export Chrome trace JSON")
    Term.(const run $ demo $ out $ connections)

let check_cmd =
  let open Wedge_check in
  let scenario =
    Arg.(value & opt string "httpd"
         & info [ "scenario" ]
             ~doc:
               (Printf.sprintf "Scenario to explore: %s, or 'all'"
                  (String.concat " | " (Scenarios.names ()))))
  in
  let schedules =
    Arg.(value & opt int 100 & info [ "schedules"; "n" ] ~doc:"Seeded schedules to explore")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed"; "s" ] ~doc:"Exploration seed") in
  let policy =
    Arg.(value & opt (enum [ ("random", `Random); ("pct", `Pct) ]) `Random
         & info [ "policy" ] ~doc:"Scheduling policy: random | pct")
  in
  let diff =
    Arg.(value & flag
         & info [ "diff" ] ~doc:"Also run the differential flat-memory reference model")
  in
  let no_faults =
    Arg.(value & flag & info [ "no-faults" ] ~doc:"Disable the scenario's fault plan")
  in
  let replay =
    Arg.(value & opt string ""
         & info [ "replay" ]
             ~doc:"Comma-separated decision trace: run one schedule under Replay")
  in
  let run scenario schedules seed policy diff no_faults replay =
    let faults = not no_faults in
    if replay <> "" then begin
      let trace =
        String.split_on_char ',' replay
        |> List.filter (fun s -> String.trim s <> "")
        |> List.map (fun s -> int_of_string (String.trim s))
        |> Array.of_list
      in
      match Explore.replay ~diff ~faults ~scenario ~seed ~trace () with
      | summary ->
          Printf.printf "replay ok: %s\n" summary;
          0
      | exception e ->
          Printf.printf "replay FAILED: %s\n" (Printexc.to_string e);
          1
    end
    else begin
      let scenarios =
        (* "all" means every server scenario; "racy" is the deliberately
           failing control and only runs when named explicitly. *)
        if scenario = "all" then
          List.filter (fun n -> n <> "racy") (Scenarios.names ())
        else [ scenario ]
      in
      let failed = ref false in
      List.iter
        (fun sc ->
          let v =
            Explore.explore ~schedules ~policy ~diff ~faults ~log:print_endline
              ~scenario:sc ~seed ()
          in
          Printf.printf "%s: %s\n%!" sc (Explore.verdict_to_string v);
          match v with Explore.Failed _ -> failed := true | Explore.Passed _ -> ())
        scenarios;
      if !failed then 1 else 0
    end
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Explore seeded schedules of a chaos scenario under invariant oracles; \
          shrink and print a repro on failure")
    Term.(const run $ scenario $ schedules $ seed $ policy $ diff $ no_faults $ replay)

let synth_cmd =
  let app_arg =
    Arg.(value & pos 0 (enum [ ("httpd", "httpd"); ("pop3", "pop3"); ("sshd", "sshd") ])
           "httpd"
         & info [] ~docv:"APP" ~doc:"Workload to profile: httpd | pop3 | sshd")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed"; "s" ] ~doc:"Workload seed") in
  let out =
    Arg.(value & opt string ""
         & info [ "out"; "o" ] ~doc:"Write the profile to this file instead of stdout")
  in
  let mode =
    Arg.(value
         & opt (enum [ ("enforce", `Enforce); ("complain", `Complain); ("record", `Record) ])
             `Enforce
         & info [ "mode" ]
             ~doc:
               "After synthesis: re-run enforced (default), re-run logging would-be \
                violations (complain), or stop after printing (record)")
  in
  Cmd.v
    (Cmd.info "synth"
       ~doc:
         "Synthesize a least-privilege profile from a recorded run and re-run the \
          workload under it")
    Term.(const run_synth $ app_arg $ seed $ out $ mode)

let cblog_cmd =
  let out =
    Arg.(value & opt string "/tmp/wedge.cblog" & info [ "out"; "o" ] ~doc:"Trace file path")
  in
  let query =
    Arg.(value & opt string "items"
         & info [ "query"; "q" ] ~doc:"items | writes | policy | static | segments")
  in
  let fn =
    Arg.(value & opt string "handle_request" & info [ "fn" ] ~doc:"Procedure to query")
  in
  Cmd.v
    (Cmd.info "cblog" ~doc:"cb-log one HTTPS request to a file and run a cb-analyze query on it")
    Term.(const run_cblog $ out $ query $ fn)

let () =
  let doc = "Wedge (NSDI 2008) reproduction - partitioned-application demos" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "wedge_cli" ~doc)
          [ pop3_cmd; https_cmd; ssh_cmd; stats_cmd; trace_cmd; cblog_cmd; synth_cmd; check_cmd ]))
