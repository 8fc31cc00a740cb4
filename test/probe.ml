(* Readings the suites take of state that a public call reports only as
   a gauge or a table.  Not an entry point: linked into every test
   binary, as [Test_rng] is. *)

(* Connections queued for accept, as the listener's metrics gauge reads. *)
let pending l =
  let m = Wedge_sim.Metrics.create () in
  Wedge_net.Chan.register_metrics m l;
  Wedge_sim.Metrics.get m "chan.pending"

(* Armed operations a site's rule has seen so far. *)
let site_ops p ~site =
  Option.value ~default:0 (List.assoc_opt site (Wedge_fault.Fault_plan.site_op_counts p))
