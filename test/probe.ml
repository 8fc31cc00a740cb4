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

(* Connects the listener refused, as its metrics counter reads. *)
let refused l =
  let m = Wedge_sim.Metrics.create () in
  Wedge_net.Chan.register_metrics m l;
  Wedge_sim.Metrics.get m "chan.refused"

(* A descriptor target that reads [data] once, then EOF, and drops what
   is written to it: a stand-in peer for tests that only need a
   descriptor. *)
let endpoint ?(data = "") () =
  let left = ref data in
  {
    Wedge_kernel.Fd_table.ep_read =
      (fun n ->
        let k = min n (String.length !left) in
        let b = Bytes.of_string (String.sub !left 0 k) in
        left := String.sub !left k (String.length !left - k);
        b);
    ep_write = (fun _ _ _ -> ());
    ep_wait = (fun () -> ());
  }

(* Whether the compartment could read the range right now, asked of its
   page table without an access. *)
let readable ctx ~addr ~len =
  Wedge_kernel.Vm.For_testing.can_read (Wedge_core.Wedge.proc ctx).Wedge_kernel.Process.vm
    ~addr ~len
