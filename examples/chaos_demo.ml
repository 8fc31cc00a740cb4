(* Chaos demo: the Figure 2 httpd under a seeded fault plan.

   Twenty connections are driven through a listener whose channels drop,
   truncate, reset and delay at a 5% per-operation rate, while frame
   allocation occasionally fails with ENOMEM.  Crashed workers degrade to
   a plaintext 500; the listener survives every one of them.  The fault
   trace at the end is a pure function of the seed — rerun the demo and
   you get the same chaos, byte for byte.

   Run with:  dune exec examples/chaos_demo.exe *)

module Fault_plan = Wedge_fault.Fault_plan
module Kernel = Wedge_kernel.Kernel
module Cost_model = Wedge_sim.Cost_model
module Fiber = Wedge_sim.Fiber
module Stats = Wedge_sim.Stats
module Chan = Wedge_net.Chan
module Drbg = Wedge_crypto.Drbg
module Rsa = Wedge_crypto.Rsa
module Env = Wedge_httpd.Httpd_env
module Simple = Wedge_httpd.Httpd_simple
module Client = Wedge_httpd.Https_client
module Http = Wedge_httpd.Http

let connections = 20
let seed = 2008

let () =
  Printf.printf "Chaos demo: %d connections, 5%% fault rate, seed %d\n\n" connections seed;
  let plan = Fault_plan.create ~seed () in
  let chan_kinds =
    [ Fault_plan.Drop; Fault_plan.Truncate; Fault_plan.Reset; Fault_plan.Delay 50 ]
  in
  Fault_plan.rule plan ~site:"chan.read" ~prob:0.05 chan_kinds;
  Fault_plan.rule plan ~site:"chan.write" ~prob:0.05 chan_kinds;
  Fault_plan.rule plan ~site:"physmem.alloc" ~prob:0.05 [ Fault_plan.Enomem ];
  Fault_plan.disarm plan;
  let k = Kernel.create ~costs:Cost_model.free ~faults:plan () in
  let env = Env.install ~image_pages:80 k in
  let served = ref 0 and degraded = ref 0 in
  Fiber.run (fun () ->
      let l = Chan.listener ~clock:k.Kernel.clock ~costs:Cost_model.free ~faults:plan () in
      Fiber.spawn (fun () ->
          let rec loop () =
            match Chan.accept l with
            | None -> ()
            | Some ep ->
                Simple.serve_connection env ep;
                loop ()
          in
          loop ());
      Fault_plan.arm plan;
      for i = 1 to connections do
        match Chan.connect l with
        | exception Fault_plan.Injected msg ->
            incr degraded;
            Printf.printf "  conn %2d: refused (%s)\n" i msg
        | ep -> (
            let rng = Drbg.create ~seed:(100 + i) in
            let outcome =
              try
                match
                  (Client.get ~rng ~pinned:env.Env.priv.Rsa.pub ~path:"/index.html" ep)
                    .Client.response
                with
                | Some { Http.status = 200; _ } -> `Served
                | Some { Http.status; _ } -> `Status status
                | None -> `Dead
              with _ -> `Dead
            in
            match outcome with
            | `Served ->
                incr served;
                Printf.printf "  conn %2d: 200 OK\n" i
            | `Status s ->
                incr degraded;
                Printf.printf "  conn %2d: degraded (%d)\n" i s
            | `Dead ->
                incr degraded;
                Printf.printf "  conn %2d: connection died\n" i)
      done;
      Fault_plan.disarm plan;
      (* Proof of life: the listener still serves a clean connection. *)
      let ep = Chan.connect l in
      let rng = Drbg.create ~seed:999 in
      let r = Client.get ~rng ~pinned:env.Env.priv.Rsa.pub ~path:"/index.html" ep in
      (match r.Client.response with
      | Some { Http.status = 200; _ } ->
          print_endline "\n  listener alive: clean fetch after the chaos -> 200 OK"
      | _ ->
          print_endline "\n  !!! listener did not survive (bug)";
          exit 1);
      Chan.shutdown l);
  Printf.printf "\n%d served, %d degraded, %d faults injected\n" !served !degraded
    (Fault_plan.injections plan);
  print_endline "\nCounters:";
  List.iter
    (fun (name, v) ->
      if
        List.exists
          (fun p -> String.length name >= String.length p && String.sub name 0 (String.length p) = p)
          [ "fault."; "supervisor."; "httpd.degraded"; "cgate." ]
      then Printf.printf "  %-28s %d\n" name v)
    (List.sort compare (Stats.to_list k.Kernel.stats));
  print_endline "\nFault trace (deterministic for this seed):";
  String.split_on_char '\n' (Fault_plan.trace plan)
  |> List.filteri (fun i s -> i < 8 && s <> "")
  |> List.iter (fun line -> Printf.printf "  %s\n" line)
