(* Trace demo: 100 HTTPS connections through the Figure 2 httpd with the
   observability layer armed.

   The kernel's trace records every syscall trap, compartment span,
   channel transfer and admission decision; the metrics registry reads
   every counter in the system through one snapshot.  Because time is
   simulated, running the identical workload twice produces the same
   Chrome-trace JSON byte for byte — asserted below, and the property the
   CI smoke gate leans on.

   Run with:  dune exec examples/trace_demo.exe
   Load the printed JSON shape in chrome://tracing via
   `dune exec bin/wedge_cli.exe -- trace httpd`. *)

module Kernel = Wedge_kernel.Kernel
module Cost_model = Wedge_sim.Cost_model
module Fiber = Wedge_sim.Fiber
module Trace = Wedge_sim.Trace
module Metrics = Wedge_sim.Metrics
module Reactor = Wedge_sim.Reactor
module Chan = Wedge_net.Chan
module Guard = Wedge_net.Guard
module Drbg = Wedge_crypto.Drbg
module Rsa = Wedge_crypto.Rsa
module Env = Wedge_httpd.Httpd_env
module Simple = Wedge_httpd.Httpd_simple
module Client = Wedge_httpd.Https_client
module Http = Wedge_httpd.Http
module W = Wedge_core.Wedge

let connections = 100

type outcome = { served : int; other : int; json : string; metrics : string }

let run () =
  let k = Kernel.create ~costs:Cost_model.default () in
  Trace.arm ~capacity:(1 lsl 18) k.Kernel.trace;
  let env = Env.install ~image_pages:80 k in
  let m = Metrics.create () in
  W.register_metrics m env.Env.app;
  let guard =
    Guard.create ~reactor:(Reactor.create ~clock:k.Kernel.clock ()) ~max_conns:16
      ~trace:k.Kernel.trace ()
  in
  Guard.register_metrics m guard;
  let served = ref 0 and other = ref 0 in
  Fiber.run (fun () ->
      let l =
        Chan.listener ~clock:k.Kernel.clock ~costs:Cost_model.default
          ~trace:k.Kernel.trace ()
      in
      Chan.register_metrics m l;
      Fiber.spawn (fun () ->
          Guard.accept_loop guard l
            ~reject:(fun _ ep -> Chan.close ep)
            ~serve:(fun conn -> Simple.serve_connection env (Guard.ep conn)));
      let resolved = ref 0 in
      for i = 1 to connections do
        Fiber.spawn (fun () ->
            (* Keep at most 12 clients in flight: under the 16-slot guard,
               so the steady state exercises admission without mass
               rejection (the drain at the end still traces both paths). *)
            Fiber.wait_until ~what:"client window open" (fun () -> !resolved >= i - 12);
            (match Chan.connect l with
            | exception Chan.Refused _ -> incr other
            | ep -> (
                let rng = Drbg.create ~seed:(1000 + i) in
                match
                  (Client.get ~rng ~pinned:env.Env.priv.Rsa.pub ~path:"/index.html" ep)
                    .Client.response
                with
                | Some { Http.status = 200; _ } -> incr served
                | Some _ | None -> incr other
                | exception _ -> incr other));
            incr resolved)
      done;
      Fiber.wait_until ~what:"all clients resolved" (fun () -> !resolved = connections);
      Guard.drain guard l);
  {
    served = !served;
    other = !other;
    json = Trace.to_chrome_json k.Kernel.trace;
    metrics = Metrics.to_json m;
  }

let () =
  Printf.printf "Trace demo: %d HTTPS connections with tracing armed\n\n" connections;
  let a = run () in
  Printf.printf "  served: %d   degraded/refused: %d\n" a.served a.other;
  Printf.printf "  trace export: %d bytes of Chrome JSON\n" (String.length a.json);
  (match Trace.validate_chrome_json a.json with
  | Ok () -> print_endline "  schema: valid Chrome trace format"
  | Error e -> failwith ("trace export failed validation: " ^ e));
  (* Spot-check that the interesting layers all show up. *)
  let contains needle =
    let nl = String.length needle and hl = String.length a.json in
    let rec go i = i + nl <= hl && (String.sub a.json i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun name ->
      if not (contains ("\"" ^ name ^ "\"")) then
        failwith ("expected event missing from trace: " ^ name))
    [ "sthread"; "chan.connect"; "chan.accept"; "guard.admit"; "guard.drain" ];
  print_endline "  layers present: engine, channels, admission";
  (* The paper-grade property: identical seeds => identical artifacts. *)
  let b = run () in
  if not (String.equal a.json b.json) then failwith "trace export is nondeterministic";
  if not (String.equal a.metrics b.metrics) then failwith "metrics export is nondeterministic";
  print_endline "  determinism: second run byte-identical (trace + metrics)";
  Printf.printf "\nMetrics snapshot (%d bytes):\n  %s\n" (String.length a.metrics)
    (if String.length a.metrics > 300 then String.sub a.metrics 0 300 ^ "..."
     else a.metrics)
