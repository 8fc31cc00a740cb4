(* The benchmark harness: one experiment per table and figure in the
   paper's evaluation (see DESIGN.md's per-experiment index).  Each
   prints to stdout and writes nothing into the tree.

   Usage:
     dune exec bench/main.exe                      # all but bechamel
     dune exec bench/main.exe -- fig8 table2 ...   # a selection
   Experiments: fig7 fig8 fig9 table2 metrics ablation bechamel. *)

let experiments =
  [
    ("fig7", Bench_fig7.run);
    ("fig8", Bench_fig8.run);
    ("fig9", Bench_fig9.run);
    ("table2", Bench_table2.run);
    ("metrics", Bench_metrics.run);
    ("ablation", Bench_ablation.run);
    ("bechamel", Bench_bechamel.run);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let selected =
    if args = [] then [ "fig7"; "fig8"; "fig9"; "table2"; "metrics"; "ablation" ] else args
  in
  print_endline "Wedge reproduction benchmarks (NSDI 2008)";
  print_endline "Simulated times are deterministic under the cost model; wall-clock";
  print_endline "results (Figure 9, bechamel) depend on this host.";
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %S; available: %s\n" name
            (String.concat " " (List.map fst experiments));
          exit 1)
    selected
