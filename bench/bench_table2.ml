(* Table 2: end-to-end application performance.
   Top half  - Apache throughput (requests/second of simulated server time)
               for Vanilla (monolithic, pooled workers), Wedge (the MITM
               partitioning with fresh callgates) and Recycled, with and
               without SSL session caching.
   Bottom half - OpenSSH latency: one login, one 10 MB scp. *)

module Kernel = Wedge_kernel.Kernel
module Fiber = Wedge_sim.Fiber
module Clock = Wedge_sim.Clock
module Chan = Wedge_net.Chan
module Drbg = Wedge_crypto.Drbg
module Rsa = Wedge_crypto.Rsa
module Dsa = Wedge_crypto.Dsa
module W = Wedge_core.Wedge
module Henv = Wedge_httpd.Httpd_env
module Mono = Wedge_httpd.Httpd_mono
module Mitm = Wedge_httpd.Httpd_mitm
module Client = Wedge_httpd.Https_client
module Senv = Wedge_sshd.Sshd_env
module Sshd_mono = Wedge_sshd.Sshd_mono
module Sshd_wedge = Wedge_sshd.Sshd_wedge
module Ssh_client = Wedge_sshd.Ssh_client
open Bench_util

type variant = Vanilla | Wedge_part | Recycled

let variant_name = function Vanilla -> "Vanilla" | Wedge_part -> "Wedge" | Recycled -> "Recycled"

(* Serve [n] measured requests (after [warmup]); returns requests/second of
   simulated server time.  [cached] drives every measured request as a
   session-cache resumption. *)
let apache_throughput ?(n = 40) variant ~cached () =
  let k = Kernel.create () in
  let env = Henv.install ~session_cache:cached k in
  let serve ep =
    match variant with
    | Vanilla -> Mono.serve_connection env ep
    | Wedge_part -> ignore (Mitm.serve_connection ~spawn:W.Boot env ep)
    | Recycled -> ignore (Mitm.serve_connection ~spawn:W.Recycle env ep)
  in
  let throughput = ref 0.0 in
  Fiber.run (fun () ->
      let request ?resume seed =
        let client_ep, server_ep = Chan.pair () in
        Fiber.spawn (fun () -> serve server_ep);
        Client.get ?resume ~rng:(Drbg.create ~seed) ~pinned:env.Henv.priv.Rsa.pub
          ~path:"/index.html" client_ep
      in
      (* Warm-up: establish a session (and the recycled gate pool). *)
      let first = request 1 in
      let resume = if cached then first.Client.session else None in
      let t0 = Clock.now k.Kernel.clock in
      for i = 2 to n + 1 do
        let r = request ?resume i in
        (match r.Client.response with
        | Some { Wedge_httpd.Http.status = 200; _ } -> ()
        | _ -> failwith "bench: request failed");
        if cached && not r.Client.resumed then failwith "bench: expected resumption"
      done;
      let elapsed_s = float_of_int (Clock.now k.Kernel.clock - t0) /. 1e9 in
      throughput := float_of_int n /. elapsed_s);
  !throughput

let paper_apache = [
  (* (variant, cached, paper req/s) *)
  (Vanilla, true, 1238.); (Wedge_part, true, 238.); (Recycled, true, 339.);
  (Vanilla, false, 247.); (Wedge_part, false, 132.); (Recycled, false, 170.);
]

(* SSH latency: simulated end-to-end time (network round trips included) of
   one login and of one 10 MB upload. *)
let ssh_latency variant =
  let k = Kernel.create () in
  let env = Senv.install k in
  let serve ep =
    match variant with
    | Vanilla -> Sshd_mono.serve_connection env ep
    | _ -> ignore (Sshd_wedge.serve_connection ~spawn:W.Boot env ep)
  in
  let login_ns = ref 0 and scp_ns = ref 0 in
  Fiber.run (fun () ->
      let connect seed =
        let client_ep, server_ep = Chan.pair ~clock:k.Kernel.clock () in
        Fiber.spawn (fun () -> serve server_ep);
        match
          Ssh_client.login ~rng:(Drbg.create ~seed) ~pinned_rsa:env.Senv.host_rsa.Rsa.pub
            ~pinned_dsa:env.Senv.host_dsa.Dsa.pub ~user:"alice"
            (Ssh_client.Password "wonderland") client_ep
        with
        | Ok conn -> conn
        | Error e -> failwith ("bench ssh: " ^ e)
      in
      let t0 = Clock.now k.Kernel.clock in
      let conn = connect 1 in
      login_ns := Clock.now k.Kernel.clock - t0;
      Ssh_client.close conn;
      let data = String.make (10 * 1024 * 1024) 'x' in
      (* like the paper's scp measurement, end to end including the
         connection and authentication *)
      let t0 = Clock.now k.Kernel.clock in
      let conn = connect 2 in
      if not (Ssh_client.scp_upload conn ~path:"upload.bin" ~data) then
        failwith "bench scp failed";
      scp_ns := Clock.now k.Kernel.clock - t0;
      Ssh_client.close conn);
  (!login_ns, !scp_ns)

let run () =
  header "Table 2 (top) - Apache throughput (requests/second, simulated server time)";
  row4 "workload / variant" "paper" "measured" "measured/paper";
  List.iter
    (fun (variant, cached, paper) ->
      let t = apache_throughput variant ~cached () in
      row4
        (Printf.sprintf "%s %s" (if cached then "cached    " else "not cached") (variant_name variant))
        (Printf.sprintf "%.0f req/s" paper)
        (Printf.sprintf "%.0f req/s" t)
        (ratio (t /. paper)))
    paper_apache;
  print_newline ();
  let tput v c = apache_throughput v ~cached:c () in
  let vc = tput Vanilla true and wc = tput Wedge_part true and rc = tput Recycled true in
  let vn = tput Vanilla false and wn = tput Wedge_part false and rn = tput Recycled false in
  Printf.printf
    "shape: recycled/vanilla cached = %.0f%% (paper 27%%), not cached = %.0f%% (paper 69%%)\n"
    (100. *. rc /. vc) (100. *. rn /. vn);
  Printf.printf "       recycled speedup over fresh callgates: cached +%.0f%% (paper +42%%), not cached +%.0f%% (paper +29%%)\n"
    (100. *. (rc -. wc) /. wc)
    (100. *. (rn -. wn) /. wn);
  header "Table 2 (bottom) - OpenSSH latency (simulated end-to-end)";
  row4 "operation" "paper" "vanilla (measured)" "wedge (measured)";
  let v_login, v_scp = ssh_latency Vanilla in
  let w_login, w_scp = ssh_latency Wedge_part in
  row4 "ssh login delay" "0.145 / 0.148 s"
    (Printf.sprintf "%.3f s" (float_of_int v_login /. 1e9))
    (Printf.sprintf "%.3f s" (float_of_int w_login /. 1e9));
  row4 "10MB scp delay" "0.376 / 0.370 s"
    (Printf.sprintf "%.3f s" (float_of_int v_scp /. 1e9))
    (Printf.sprintf "%.3f s" (float_of_int w_scp /. 1e9))
