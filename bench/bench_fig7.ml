(* Figure 7: sthread-call microbenchmarks.  Creation + execution + teardown
   of each primitive from a minimal-size parent, in simulated time, next to
   the values the paper reports for its 2.66 GHz Xeon. *)

module Kernel = Wedge_kernel.Kernel
module W = Wedge_core.Wedge
open Bench_util

let paper_us = [ ("pthread", 8.0); ("recycled", 8.0); ("sthread", 60.0); ("callgate", 62.0); ("fork", 65.0) ]

let measure () =
  let k = Kernel.create () in
  let app = W.create_app k in
  let main = W.main_ctx app in
  W.boot app;
  let noop_body _ _ = 0 in
  let time f = snd (sim_time k f) in
  let pthread_t = time (fun () -> ignore (W.pthread main (fun _ -> 0))) in
  let sthread_t =
    time (fun () ->
        let h = W.sthread_create main (W.sc_create ()) noop_body 0 in
        ignore (W.sthread_join main h))
  in
  let sc = W.sc_create () in
  let fresh_gate =
    W.sc_cgate_add main sc ~name:"bench.noop" ~entry:(fun _ ~trusted:_ ~arg -> arg)
      ~cgsc:(W.sc_create ()) ~trusted:0
  in
  let recycled_gate =
    W.sc_cgate_add ~spawn:W.Recycle main sc ~name:"bench.noop.recycled"
      ~entry:(fun _ ~trusted:_ ~arg -> arg) ~cgsc:(W.sc_create ()) ~trusted:0
  in
  let h =
    W.sthread_create main sc
      (fun ctx _ ->
        (* warm the recycled gate so we measure steady-state reuse *)
        ignore (W.cgate ctx recycled_gate ~perms:(W.sc_create ()) ~arg:0);
        let cg = snd (sim_time k (fun () -> W.cgate ctx fresh_gate ~perms:(W.sc_create ()) ~arg:0)) in
        let rc = snd (sim_time k (fun () -> W.cgate ctx recycled_gate ~perms:(W.sc_create ()) ~arg:0)) in
        (* pack the two results *)
        (cg * 1_000_000) + rc)
      0
  in
  let packed = W.sthread_join main h in
  let callgate_t = packed / 1_000_000 and recycled_t = packed mod 1_000_000 in
  let fork_t = time (fun () -> ignore (W.fork main (fun _ -> 0))) in
  [
    ("pthread", pthread_t);
    ("recycled", recycled_t);
    ("sthread", sthread_t);
    ("callgate", callgate_t);
    ("fork", fork_t);
  ]

let run () =
  header "Figure 7 - sthread calls: creation/invocation latency (minimal parent)";
  row3 "primitive" "paper (us)" "measured (sim)";
  List.iter
    (fun (name, t) ->
      let paper = List.assoc name paper_us in
      row3 name (Printf.sprintf "%.0f us" paper) (us t))
    (measure ());
  print_newline ();
  let m = measure () in
  let get n = float_of_int (List.assoc n m) in
  Printf.printf "shape: sthread/pthread = %s (paper ~8x); fork/sthread = %s (paper ~1.1x);\n"
    (ratio (get "sthread" /. get "pthread"))
    (ratio (get "fork" /. get "sthread"));
  Printf.printf "       callgate/recycled = %s (paper ~8x)\n"
    (ratio (get "callgate" /. get "recycled"))
