(* Figure 9: cb-log overhead.  Each workload runs natively, under the Pin
   model, and under full cb-log; wall-clock times and the Crowbar/Pin
   ratios the paper annotates above its bars.  The two application entries
   (ssh, apache) run a real protocol session with instrumentation attached
   to the server's compartments. *)

module Kernel = Wedge_kernel.Kernel
module Cost_model = Wedge_sim.Cost_model
module Instr = Wedge_sim.Instr
module Fiber = Wedge_sim.Fiber
module Chan = Wedge_net.Chan
module Drbg = Wedge_crypto.Drbg
module Rsa = Wedge_crypto.Rsa
module Dsa = Wedge_crypto.Dsa
module W = Wedge_core.Wedge
module Cb_log = Wedge_crowbar.Cb_log
module Workload = Wedge_spec.Workload
open Bench_util

let paper_ratio = [
  ("ssh", 2.4); ("mcf", 7.1); ("gobmk", 8.7); ("apache", 8.8); ("quantum", 29.);
  ("hmmer", 42.); ("sjeng", 51.); ("bzip2", 53.); ("h264", 90.);
]

type rowresult = {
  r_name : string;
  r_native : float;
  r_pin : float;
  r_crowbar : float;
  r_accesses : int;
}

let run_kernel_workload (w : Workload.t) =
  let scale = w.Workload.default_scale in
  let c0, native = wall_time (fun () -> w.Workload.run ~instr:Instr.null ~scale) in
  let _, pin =
    wall_time (fun () ->
        let p = Cb_log.pin () in
        w.Workload.run ~instr:(Cb_log.pin_instr p) ~scale)
  in
  let log = ref (Cb_log.create ()) in
  let c1, crowbar =
    wall_time (fun () ->
        let l = Cb_log.create () in
        log := l;
        w.Workload.run ~instr:(Cb_log.instr l) ~scale)
  in
  if c0 <> c1 then failwith (w.Workload.name ^ ": checksum mismatch across modes");
  {
    r_name = w.Workload.name;
    r_native = native;
    r_pin = pin;
    r_crowbar = crowbar;
    r_accesses = Wedge_crowbar.Trace.access_count (Cb_log.trace !log);
  }

(* One sshd login session against the partitioned server with the chosen
   instrumentation attached to every compartment. *)
let ssh_session instr =
  let k = Kernel.create ~costs:Cost_model.free () in
  let env = Wedge_sshd.Sshd_env.install ~image_pages:80 k in
  W.set_instr env.Wedge_sshd.Sshd_env.main instr;
  Fiber.run (fun () ->
      let client_ep, server_ep = Chan.pair ~costs:Cost_model.free () in
      Fiber.spawn (fun () -> Wedge_sshd.Sshd_wedge.serve_connection env server_ep);
      match
        Wedge_sshd.Ssh_client.login ~rng:(Drbg.create ~seed:3)
          ~pinned_rsa:env.Wedge_sshd.Sshd_env.host_rsa.Rsa.pub
          ~pinned_dsa:env.Wedge_sshd.Sshd_env.host_dsa.Dsa.pub ~user:"alice"
          (Wedge_sshd.Ssh_client.Password "wonderland") client_ep
      with
      | Ok conn ->
          ignore (Wedge_sshd.Ssh_client.exec conn "shell");
          Wedge_sshd.Ssh_client.close conn
      | Error e -> failwith e)

(* One HTTPS request against the partitioned Apache stand-in. *)
let apache_session instr =
  let k = Kernel.create ~costs:Cost_model.free () in
  let env = Wedge_httpd.Httpd_env.install ~image_pages:80 k in
  W.set_instr env.Wedge_httpd.Httpd_env.main instr;
  Fiber.run (fun () ->
      let client_ep, server_ep = Chan.pair ~costs:Cost_model.free () in
      Fiber.spawn (fun () -> Wedge_httpd.Httpd_mitm.serve_connection env server_ep);
      let r =
        Wedge_httpd.Https_client.get ~rng:(Drbg.create ~seed:4)
          ~pinned:env.Wedge_httpd.Httpd_env.priv.Rsa.pub ~path:"/index.html" client_ep
      in
      if r.Wedge_httpd.Https_client.response = None then failwith "apache session failed")

let run_app_workload name session =
  let _, native = wall_time (fun () -> session Instr.null) in
  let _, pin = wall_time (fun () -> session (Cb_log.pin_instr (Cb_log.pin ()))) in
  let log = ref (Cb_log.create ()) in
  let _, crowbar =
    wall_time (fun () ->
        let l = Cb_log.create () in
        log := l;
        session (Cb_log.instr l))
  in
  {
    r_name = name;
    r_native = native;
    r_pin = pin;
    r_crowbar = crowbar;
    r_accesses = Wedge_crowbar.Trace.access_count (Cb_log.trace !log);
  }

let run () =
  header "Figure 9 - cb-log overhead (wall clock; ratio = Crowbar/Pin as in the paper)";
  Printf.printf "%-9s %11s %11s %11s %11s %9s %10s\n" "workload" "native (s)" "pin (s)"
    "crowbar(s)" "cb/pin" "paper" "accesses";
  let rows =
    run_app_workload "ssh" ssh_session
    :: run_app_workload "apache" apache_session
    :: List.map run_kernel_workload Workload.all
  in
  let ordered =
    List.sort (fun a b -> compare (a.r_crowbar /. a.r_pin) (b.r_crowbar /. b.r_pin)) rows
  in
  List.iter
    (fun r ->
      Printf.printf "%-9s %11.4f %11.4f %11.4f %10.1fx %8.1fx %10d\n" r.r_name r.r_native
        r.r_pin r.r_crowbar (r.r_crowbar /. r.r_pin)
        (List.assoc r.r_name paper_ratio)
        r.r_accesses)
    ordered;
  let mean f = List.fold_left (fun a r -> a +. f r) 0. rows /. float_of_int (List.length rows) in
  Printf.printf
    "\nmeans: pin/native = %.1fx (paper ~7x), crowbar/native = %.1fx (paper ~96x), crowbar/pin = %.1fx (paper ~27x)\n"
    (mean (fun r -> r.r_pin /. r.r_native))
    (mean (fun r -> r.r_crowbar /. r.r_native))
    (mean (fun r -> r.r_crowbar /. r.r_pin));
  (* The paper's cb-log writes its trace to disk for cb-analyze; report the
     cost and size of doing so for one representative workload. *)
  (match Workload.find "bzip2" with
  | Some w ->
      let log = Cb_log.create () in
      ignore (w.Workload.run ~instr:(Cb_log.instr log) ~scale:w.Workload.default_scale);
      let path = Filename.temp_file "wedge-fig9" ".cblog" in
      let _, t = wall_once (fun () -> Wedge_crowbar.Trace.save (Cb_log.trace log) path) in
      let size_mb = float_of_int (Unix.stat path).Unix.st_size /. 1048576. in
      Printf.printf "\ntrace file (bzip2 run): %.1f MB written in %.2f s (paper: traces in < 10 min)\n"
        size_mb t;
      Sys.remove path
  | None -> ());
  print_endline
    "note: applications instrument bulk record operations, not per-byte loads, so their\n\
     absolute ratios are compressed; the paper's shape (apps cheapest, h264-class\n\
     access-dense kernels dearest) is what this experiment reproduces."
