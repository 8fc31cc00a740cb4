(* Ablations of design choices DESIGN.md calls out:
   E7 - the userland tag free-list cache (paper §4.1: +20% partitioned
        Apache throughput);
   E8 - policy-proportional sthread creation vs whole-address-space fork
        as the parent grows (paper §6's expectation). *)

module Kernel = Wedge_kernel.Kernel
module Clock = Wedge_sim.Clock
module Fiber = Wedge_sim.Fiber
module Chan = Wedge_net.Chan
module Drbg = Wedge_crypto.Drbg
module Rsa = Wedge_crypto.Rsa
module W = Wedge_core.Wedge
module Henv = Wedge_httpd.Httpd_env
module Mitm = Wedge_httpd.Httpd_mitm
module Client = Wedge_httpd.Https_client
open Bench_util

let apache_cached_throughput ~tag_cache ~n =
  let k = Kernel.create () in
  let env = Henv.install k in
  W.set_tag_cache env.Henv.app tag_cache;
  let throughput = ref 0.0 in
  Fiber.run (fun () ->
      let request ?resume seed =
        let client_ep, server_ep = Chan.pair () in
        Fiber.spawn (fun () -> ignore (Mitm.serve_connection ~spawn:W.Recycle env server_ep));
        Client.get ?resume ~rng:(Drbg.create ~seed) ~pinned:env.Henv.priv.Rsa.pub
          ~path:"/index.html" client_ep
      in
      let first = request 1 in
      let resume = first.Client.session in
      let t0 = Clock.now k.Kernel.clock in
      for i = 2 to n + 1 do
        ignore (request ?resume i)
      done;
      throughput := float_of_int n /. (float_of_int (Clock.now k.Kernel.clock - t0) /. 1e9));
  (!throughput, W.tag_cache_hits env.Henv.app, W.tag_cache_misses env.Henv.app)

let tag_cache_ablation () =
  header "Ablation E7 - tag free-list cache (partitioned Apache, cached sessions)";
  let on, hits, misses = apache_cached_throughput ~tag_cache:true ~n:30 in
  let off, _, _ = apache_cached_throughput ~tag_cache:false ~n:30 in
  row3 "tag cache" "throughput" "cache hits/misses";
  row3 "enabled" (Printf.sprintf "%.0f req/s" on) (Printf.sprintf "%d / %d" hits misses);
  row3 "disabled" (Printf.sprintf "%.0f req/s" off) "-";
  Printf.printf "\nend-to-end improvement from reuse: +%.1f%% (paper: +20%%)\n" (100. *. (on -. off) /. off);
  (* The per-operation effect, which the end-to-end number dilutes: our
     partitioning creates 4 tags per connection while the paper's Apache
     handled hundreds of memory objects per request, so reuse moves our
     throughput far less than theirs. *)
  let k = Kernel.create () in
  let app = W.create_app k in
  let main = W.main_ctx app in
  W.boot app;
  let warm = W.tag_new ~pages:16 main in
  W.tag_delete main warm;
  let _, hit = sim_time k (fun () -> W.tag_new ~pages:16 main) in
  W.set_tag_cache app false;
  let _, cold = sim_time k (fun () -> W.tag_new ~pages:16 main) in
  Printf.printf "per-operation: tag_new reuse %s vs cold %s (%.1fx cheaper)\n"
    (ns hit) (ns cold) (float_of_int cold /. float_of_int hit)

let creation_scaling () =
  header "Ablation E8 - sthread vs fork creation as the parent address space grows";
  Printf.printf "%-22s %16s %16s %10s\n" "parent image" "sthread (empty sc)" "fork" "fork/sthread";
  List.iter
    (fun (label, image_pages, extra_tags) ->
      let k = Kernel.create () in
      let app = W.create_app ~image_pages k in
      let main = W.main_ctx app in
      W.boot app;
      (* Extra non-pristine memory (tags the parent mapped): an sthread with
         an empty policy never pays for these; fork always copies them. *)
      for i = 1 to extra_tags do
        ignore (W.tag_new ~name:(Printf.sprintf "bulk%d" i) ~pages:64 main)
      done;
      let sthread_t =
        snd (sim_time k (fun () -> ignore (W.sthread_create main (W.sc_create ()) (fun _ _ -> 0) 0)))
      in
      let fork_t = snd (sim_time k (fun () -> ignore (W.fork main (fun _ -> 0)))) in
      Printf.printf "%-22s %16s %16s %9.2fx\n" label (us sthread_t) (us fork_t)
        (float_of_int fork_t /. float_of_int sthread_t))
    [
      ("minimal (300 pg)", 300, 0);
      ("+64 tags (~16MB)", 300, 64);
      ("apache-sized image", 3500, 0);
      ("apache + 64 tags", 3500, 64);
    ];
  print_endline
    "\npaper (§6): \"For parents with large page tables, we expect sthread creation to be\n\
     faster than fork, because only those entries specified in the security policy are\n\
     copied; fork must always copy these in their entirety.\""

let run () =
  tag_cache_ablation ();
  creation_scaling ()
