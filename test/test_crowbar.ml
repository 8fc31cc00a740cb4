(* Crowbar tests: cb-log tracing (backtraces, allocation-site attribution),
   the three cb-analyze query types, policy suggestion, the sthread
   emulation library, and the complete partitioning workflow the paper
   describes — trace a monolithic run, ask Crowbar what a compartment
   needs, build the policy, and watch the default-deny sthread run clean. *)

module Kernel = Wedge_kernel.Kernel
module Cost_model = Wedge_sim.Cost_model
module Prot = Wedge_kernel.Prot
module Process = Wedge_kernel.Process
module Instr = Wedge_sim.Instr
module Tag = Wedge_mem.Tag
module W = Wedge_core.Wedge
module Backtrace = Wedge_crowbar.Backtrace
module Trace = Wedge_crowbar.Trace
module Cb_log = Wedge_crowbar.Cb_log
module Cb_analyze = Wedge_crowbar.Cb_analyze
module Emulation = Wedge_crowbar.Emulation

let check = Alcotest.check

let mk_app () =
  let k = Kernel.create ~costs:Cost_model.free () in
  let app = W.create_app k in
  W.boot app;
  (k, app, W.main_ctx app)

(* A little monolithic "application" with a call tree:
     session_handler
       -> parse_input   (reads the input tag, writes heap scratch)
       -> render_reply  (reads heap scratch, writes the output tag)
   plus an unrelated function [bystander] that touches a third tag. *)
let workload ctx ~input_tag ~output_tag ~secret_tag =
  let input = W.smalloc ctx 64 input_tag in
  W.write_string ctx input "GET /index";
  let output = W.smalloc ctx 128 output_tag in
  let secret = W.smalloc ctx 32 secret_tag in
  W.write_string ctx secret "the private key";
  let scratch = ref 0 in
  let fn name f = W.in_function ctx ~name ~file:"app.ml" ~line:1 f in
  fn "session_handler" (fun () ->
      fn "parse_input" (fun () ->
          let s = W.read_string ctx input 10 in
          scratch := W.malloc ctx 32;
          W.write_string ctx !scratch (String.uppercase_ascii s));
      fn "render_reply" (fun () ->
          let s = W.read_string ctx !scratch 10 in
          W.write_string ctx output ("reply:" ^ s)));
  fn "bystander" (fun () -> ignore (W.read_string ctx secret 15));
  (input, output, !scratch)

let traced_workload () =
  let _, _, main = mk_app () in
  let input_tag = W.tag_new ~name:"input" main in
  let output_tag = W.tag_new ~name:"output" main in
  let secret_tag = W.tag_new ~name:"secret" main in
  let log = Cb_log.create () in
  W.set_instr main (Cb_log.instr log);
  let addrs = workload main ~input_tag ~output_tag ~secret_tag in
  W.set_instr main Instr.null;
  (Cb_log.trace log, input_tag, output_tag, secret_tag, addrs)

(* ---------- backtrace ---------- *)

let test_backtrace_stack () =
  let bt = Backtrace.create () in
  Backtrace.push bt { Backtrace.fn = "a"; file = "f"; line = 1 };
  Backtrace.push bt { Backtrace.fn = "b"; file = "f"; line = 2 };
  check Alcotest.int "depth" 2 (Backtrace.depth bt);
  check Alcotest.bool "in scope" true (Backtrace.in_scope bt ~fn:"a");
  (match Backtrace.current bt with
  | { Backtrace.fn = "b"; _ } :: _ -> ()
  | _ -> Alcotest.fail "innermost first");
  Backtrace.pop bt;
  check Alcotest.bool "popped" false (Backtrace.in_scope bt ~fn:"b")

(* ---------- cb-log ---------- *)

let test_trace_attributes_accesses () =
  let tr, input_tag, _, _, (input, _, _) = traced_workload () in
  check Alcotest.bool "has accesses" true (Trace.access_count tr > 0);
  (* The read of the input buffer is attributed to parse_input under
     session_handler, in the input tag's smalloc'd segment. *)
  let hit =
    Array.exists
      (fun (a : Trace.access) ->
        a.Trace.a_addr = input
        && a.Trace.a_mode = Trace.Read
        && (match a.Trace.a_seg with
           | Some s -> s.Trace.kind = Trace.Tagged input_tag.Tag.id
           | None -> false)
        && List.exists (fun f -> f.Backtrace.fn = "parse_input") a.Trace.a_bt
        && List.exists (fun f -> f.Backtrace.fn = "session_handler") a.Trace.a_bt)
      (Trace.accesses tr)
  in
  check Alcotest.bool "input read fully attributed" true hit

let test_trace_heap_alloc_site () =
  let tr, _, _, _, (_, _, scratch) = traced_workload () in
  match
    Array.to_list (Trace.accesses tr)
    |> List.find_map (fun a -> if a.Trace.a_addr = scratch then a.Trace.a_seg else None)
  with
  | Some seg ->
      check Alcotest.bool "heap kind" true (seg.Trace.kind = Trace.Heap);
      check Alcotest.bool "alloc site records parse_input" true
        (List.exists (fun f -> f.Backtrace.fn = "parse_input") seg.Trace.alloc_bt)
  | None -> Alcotest.fail "scratch segment not found"

let test_trace_offsets () =
  let tr, _, output_tag, _, (_, output, _) = traced_workload () in
  ignore output_tag;
  let writes =
    Array.to_list (Trace.accesses tr)
    |> List.filter (fun (a : Trace.access) ->
           a.Trace.a_mode = Trace.Write && a.Trace.a_addr = output)
  in
  match writes with
  | a :: _ -> check Alcotest.bool "offset within segment" true (a.Trace.a_off >= 0)
  | [] -> Alcotest.fail "no write to output"

let test_free_retires_segment () =
  let _, _, main = mk_app () in
  let tag = W.tag_new ~name:"t" main in
  let log = Cb_log.create () in
  W.set_instr main (Cb_log.instr log);
  let p = W.smalloc main 32 tag in
  W.sfree main p;
  let q = W.smalloc main 32 tag in
  W.write_u8 main q 1;
  W.set_instr main Instr.null;
  let tr = Cb_log.trace log in
  (* The write to q attributes to the NEW segment, not the freed one. *)
  match
    Array.to_list (Trace.accesses tr)
    |> List.find_map (fun a ->
           if a.Trace.a_addr = q && a.Trace.a_mode = Trace.Write then a.Trace.a_seg else None)
  with
  | Some seg -> check Alcotest.bool "live segment" true seg.Trace.live
  | None -> Alcotest.fail "no segment"

(* ---------- cb-analyze ---------- *)

let test_query1_includes_descendants () =
  let tr, input_tag, output_tag, secret_tag, _ = traced_workload () in
  let items = Cb_analyze.items_used_by tr ~fn:"session_handler" in
  let kinds = List.map (fun ir -> ir.Cb_analyze.ir_segment.Trace.kind) items in
  check Alcotest.bool "input tag (read in descendant)" true
    (List.exists (fun k -> k = Trace.Tagged input_tag.Tag.id) kinds);
  check Alcotest.bool "output tag" true
    (List.exists (fun k -> k = Trace.Tagged output_tag.Tag.id) kinds);
  check Alcotest.bool "heap scratch" true (List.mem Trace.Heap kinds);
  check Alcotest.bool "secret NOT included" false
    (List.exists (fun k -> k = Trace.Tagged secret_tag.Tag.id) kinds)

let test_query1_modes () =
  let tr, input_tag, output_tag, _, _ = traced_workload () in
  let items = Cb_analyze.items_used_by tr ~fn:"session_handler" in
  let find k = List.find_opt (fun ir -> ir.Cb_analyze.ir_segment.Trace.kind = k) items in
  (match find (Trace.Tagged input_tag.Tag.id) with
  | Some ir ->
      check Alcotest.bool "input read-only" true
        (ir.Cb_analyze.ir_reads > 0 && ir.Cb_analyze.ir_writes = 0)
  | None -> Alcotest.fail "input missing");
  match find (Trace.Tagged output_tag.Tag.id) with
  | Some ir -> check Alcotest.bool "output written" true (ir.Cb_analyze.ir_writes > 0)
  | None -> Alcotest.fail "output missing"

let test_query2_procedures_for_data () =
  let tr, _, _, secret_tag, _ = traced_workload () in
  let secret_segs =
    List.filter
      (fun s -> s.Trace.kind = Trace.Tagged secret_tag.Tag.id)
      (Trace.segments tr)
  in
  let procs = Cb_analyze.procedures_using tr ~segments:secret_segs in
  let names = List.map (fun p -> p.Cb_analyze.pr_fn) procs in
  check Alcotest.bool "bystander found" true (List.mem "bystander" names);
  check Alcotest.bool "parse_input not implicated" false (List.mem "parse_input" names)

let test_query3_write_sites () =
  let tr, input_tag, output_tag, _, _ = traced_workload () in
  let items = Cb_analyze.writes_of tr ~fn:"render_reply" in
  let kinds = List.map (fun ir -> ir.Cb_analyze.ir_segment.Trace.kind) items in
  check Alcotest.bool "writes to output tag" true
    (List.exists (fun k -> k = Trace.Tagged output_tag.Tag.id) kinds);
  check Alcotest.bool "no writes to input" false
    (List.exists (fun k -> k = Trace.Tagged input_tag.Tag.id) kinds)

(* Queries 2 and 3 across a compartment boundary: a worker sthread calls a
   callgate whose entry runs under its own frame.  The gate ctx inherits
   the caller's cb-log instrumentation and the backtrace is shared, so the
   gate's accesses nest as descendants of the worker's call site. *)
let traced_gate_workload () =
  let _, _, main = mk_app () in
  let arg_tag = W.tag_new ~name:"g.arg" main in
  let vault_tag = W.tag_new ~name:"g.vault" main in
  let log = Cb_log.create () in
  W.set_instr main (Cb_log.instr log);
  let arg = W.smalloc main 16 arg_tag in
  let vault = W.smalloc main 16 vault_tag in
  W.write_u8 main arg 7;
  let worker_sc = W.sc_create () in
  W.sc_mem_add worker_sc arg_tag Prot.RW;
  let cgsc = W.sc_create () in
  W.sc_mem_add cgsc vault_tag Prot.RW;
  let gate =
    W.sc_cgate_add main worker_sc ~name:"vault_gate"
      ~entry:(fun gctx ~trusted:_ ~arg ->
        W.in_function gctx ~name:"gate_entry" (fun () ->
            let v = W.read_u8 gctx arg in
            W.write_u8 gctx vault v;
            v))
      ~cgsc ~trusted:0
  in
  let h =
    W.sthread_create main worker_sc
      (fun ctx _ ->
        W.in_function ctx ~name:"worker_fn" (fun () ->
            W.write_u8 ctx arg 9;
            let perms = W.sc_create () in
            W.sc_mem_add perms arg_tag Prot.R;
            W.cgate ctx gate ~perms ~arg))
      0
  in
  ignore (W.sthread_join main h);
  W.set_instr main Instr.null;
  check Alcotest.bool "workload ran clean" true (W.handle_status h = Process.Exited 0);
  (Cb_log.trace log, arg_tag, vault_tag)

let test_query2_nested_gate_attribution () =
  let tr, _, vault_tag = traced_gate_workload () in
  let vault_segs =
    List.filter (fun s -> s.Trace.kind = Trace.Tagged vault_tag.Tag.id) (Trace.segments tr)
  in
  let procs = Cb_analyze.procedures_using tr ~segments:vault_segs in
  let names = List.map (fun p -> p.Cb_analyze.pr_fn) procs in
  (* The innermost toucher of the vault is the gate's entry, not the
     worker function that merely invoked the gate. *)
  check Alcotest.bool "gate_entry implicated" true (List.mem "gate_entry" names);
  check Alcotest.bool "worker_fn not the innermost toucher" false
    (List.mem "worker_fn" names)

let test_query3_nested_gate_descendants () =
  let tr, arg_tag, vault_tag = traced_gate_workload () in
  let kinds_written_by fn =
    List.map
      (fun ir -> ir.Cb_analyze.ir_segment.Trace.kind)
      (Cb_analyze.writes_of tr ~fn)
  in
  (* From the worker's vantage the gate is a descendant: its vault write
     is attributed to worker_fn's subtree alongside the direct arg write. *)
  let from_worker = kinds_written_by "worker_fn" in
  check Alcotest.bool "worker subtree writes arg" true
    (List.exists (fun k -> k = Trace.Tagged arg_tag.Tag.id) from_worker);
  check Alcotest.bool "worker subtree writes vault (through the gate)" true
    (List.exists (fun k -> k = Trace.Tagged vault_tag.Tag.id) from_worker);
  (* From the gate's vantage only the vault is written: the arg write
     happened before the gate was entered. *)
  let from_gate = kinds_written_by "gate_entry" in
  check Alcotest.bool "gate writes vault" true
    (List.exists (fun k -> k = Trace.Tagged vault_tag.Tag.id) from_gate);
  check Alcotest.bool "gate does not write arg" false
    (List.exists (fun k -> k = Trace.Tagged arg_tag.Tag.id) from_gate)

let test_overapproximation_is_superset () =
  let tr, _, _, _, _ = traced_workload () in
  let per_fn = Cb_analyze.suggest_policy tr ~fn:"session_handler" in
  let everything = Cb_analyze.overapproximate tr in
  check Alcotest.bool "static superset strictly larger" true
    (List.length everything > List.length per_fn);
  List.iter
    (fun s ->
      check Alcotest.bool "contained" true
        (List.exists (fun s' -> s'.Cb_analyze.s_kind = s.Cb_analyze.s_kind) everything))
    per_fn

let test_save_load_roundtrip () =
  let tr, input_tag, _, _, _ = traced_workload () in
  let path = Filename.temp_file "wedge" ".cblog" in
  Trace.save tr path;
  (match Trace.load path with
  | Error e -> Alcotest.fail e
  | Ok tr2 ->
      check Alcotest.int "access count" (Trace.access_count tr) (Trace.access_count tr2);
      check Alcotest.int "segment count"
        (List.length (Trace.segments tr))
        (List.length (Trace.segments tr2));
      (* Queries give identical answers on the reloaded trace. *)
      let items t = Cb_analyze.items_used_by t ~fn:"session_handler" in
      check Alcotest.int "query results match" (List.length (items tr)) (List.length (items tr2));
      let kinds t = List.map (fun ir -> ir.Cb_analyze.ir_segment.Trace.kind) (items t) in
      check Alcotest.bool "input tag present after reload" true
        (List.exists (fun k -> k = Trace.Tagged input_tag.Tag.id) (kinds tr2)));
  Sys.remove path

let test_save_load_escaping () =
  (* Names with spaces, pipes and newlines survive the text format. *)
  let tr = Trace.create () in
  let bt = [ { Backtrace.fn = "we|ird fn"; file = "a b.ml"; line = 3 } ] in
  ignore (Trace.add_segment tr ~base:4096 ~len:64 ~kind:(Trace.Global "g|1 x\n") ~bt);
  Trace.record tr ~addr:4100 ~len:4 ~mode:Trace.Write ~bt;
  let path = Filename.temp_file "wedge" ".cblog" in
  Trace.save tr path;
  (match Trace.load path with
  | Error e -> Alcotest.fail e
  | Ok tr2 -> (
      match Trace.segments tr2 with
      | [ s ] ->
          check Alcotest.bool "kind survived" true (s.Trace.kind = Trace.Global "g|1 x\n");
          (match (Trace.accesses tr2).(0).Trace.a_bt with
          | [ f ] -> check Alcotest.string "frame fn survived" "we|ird fn" f.Backtrace.fn
          | _ -> Alcotest.fail "bt lost")
      | _ -> Alcotest.fail "segment lost"));
  Sys.remove path

let test_load_rejects_garbage () =
  let path = Filename.temp_file "wedge" ".cblog" in
  let oc = open_out path in
  output_string oc "S not a valid line | x\n";
  close_out oc;
  (match Trace.load path with
  | Ok _ -> Alcotest.fail "expected parse error"
  | Error _ -> ());
  Sys.remove path

let test_merge_traces () =
  let tr1, _, _, _, _ = traced_workload () in
  let tr2, _, _, _, _ = traced_workload () in
  let merged = Trace.merge [ tr1; tr2 ] in
  check Alcotest.int "accesses add up"
    (Trace.access_count tr1 + Trace.access_count tr2)
    (Trace.access_count merged)

(* ---------- emulation + workflow ---------- *)

let test_emulation_logs_without_killing () =
  let _, _, main = mk_app () in
  let tag = W.tag_new ~name:"needed" main in
  let addr = W.smalloc main 16 tag in
  W.write_string main addr "hello";
  (* Policy forgot the tag entirely. *)
  let sc = W.sc_create () in
  let result, violations =
    Emulation.run main sc
      (fun ctx _ ->
        (* would fault under a real sthread; emulation lets it finish *)
        if W.read_string ctx addr 5 = "hello" then 42 else 0)
      0
  in
  check Alcotest.int "body completed" 42 result;
  check Alcotest.bool "violations logged" true (List.length violations > 0);
  match Emulation.missing_grants (W.app_of main) violations with
  | [ (t, g) ] ->
      check Alcotest.string "right tag" "needed" t.Tag.name;
      check Alcotest.bool "read grant suffices" true (g = Prot.R)
  | l -> Alcotest.failf "expected one grant, got %d" (List.length l)

let test_emulation_write_needs_rw () =
  let _, _, main = mk_app () in
  let tag = W.tag_new ~name:"w" main in
  let addr = W.smalloc main 16 tag in
  let sc = W.sc_create () in
  let _, violations =
    Emulation.run main sc
      (fun ctx _ ->
        W.write_u8 ctx addr 1;
        0)
      0
  in
  match Emulation.missing_grants (W.app_of main) violations with
  | [ (_, g) ] -> check Alcotest.bool "rw needed" true (g = Prot.RW)
  | _ -> Alcotest.fail "expected one grant"

let test_emulation_respects_partial_grants () =
  let _, _, main = mk_app () in
  let tag = W.tag_new ~name:"have" main in
  let addr = W.smalloc main 16 tag in
  W.write_string main addr "x";
  let sc = W.sc_create () in
  W.sc_mem_add sc tag Prot.R;
  let _, violations =
    Emulation.run main sc
      (fun ctx _ ->
        ignore (W.read_u8 ctx addr);
        (* allowed *)
        W.write_u8 ctx addr 1;
        (* not allowed: R only *)
        0)
      0
  in
  check Alcotest.int "only the write violates" 1 (List.length violations)

let test_emulation_with_cblog_backtraces () =
  (* With cb-log attached, violations carry the offending backtrace. *)
  let _, _, main = mk_app () in
  let tag = W.tag_new ~name:"v" main in
  let addr = W.smalloc main 8 tag in
  let log = Cb_log.create () in
  let _, violations =
    Emulation.run ~cblog:log main (W.sc_create ())
      (fun ctx _ ->
        W.in_function ctx ~name:"offender" (fun () -> ignore (W.read_u8 ctx addr));
        0)
      0
  in
  match violations with
  | [ v ] -> (
      match v.Emulation.v_bt with
      | f :: _ -> check Alcotest.string "backtrace names the offender" "offender" f.Backtrace.fn
      | [] -> Alcotest.fail "no backtrace despite cblog")
  | l -> Alcotest.failf "expected 1 violation, got %d" (List.length l)

let test_full_partitioning_workflow () =
  (* The end-to-end §3.4 story:
     1. run the monolithic code under cb-log;
     2. ask cb-analyze what session_handler needs;
     3. build an sc from the suggestions;
     4. the default-deny sthread now runs the same code cleanly — and
        still cannot touch the secret. *)
  let _, _, main = mk_app () in
  let input_tag = W.tag_new ~name:"input" main in
  let output_tag = W.tag_new ~name:"output" main in
  let secret_tag = W.tag_new ~name:"secret" main in
  let log = Cb_log.create () in
  W.set_instr main (Cb_log.instr log);
  let input, output, _ = workload main ~input_tag ~output_tag ~secret_tag in
  W.set_instr main Instr.null;
  let tr = Cb_log.trace log in
  (* Build the policy from Crowbar's answer. *)
  let sc = W.sc_create () in
  List.iter
    (fun s ->
      match s.Cb_analyze.s_kind with
      | Trace.Tagged id -> (
          match List.find_opt (fun t -> t.Tag.id = id) (W.live_tags (W.app_of main)) with
          | Some tag -> W.sc_mem_add sc tag s.Cb_analyze.s_grant
          | None -> ())
      | _ -> ())
    (Cb_analyze.suggest_policy tr ~fn:"session_handler");
  let secret_addr = W.smalloc main 16 secret_tag in
  W.write_string main secret_addr "shh";
  let h =
    W.sthread_create main sc
      (fun ctx _ ->
        (* the same handler logic, now in a compartment *)
        let s = W.read_string ctx input 10 in
        let scratch = W.malloc ctx 32 in
        W.write_string ctx scratch s;
        W.write_string ctx output ("reply:" ^ W.read_string ctx scratch 5);
        (* and the secret is out of reach *)
        match W.read_u8 ctx secret_addr with
        | _ -> 0
        | exception Wedge_kernel.Vm.Fault _ -> 7)
      0
  in
  check Alcotest.int "handler ran clean, secret denied" 7 (W.sthread_join main h);
  check Alcotest.bool "no fault" true (W.handle_status h = Process.Exited 0)

let () =
  Alcotest.run "wedge_crowbar"
    [
      ("backtrace", [ Alcotest.test_case "stack ops" `Quick test_backtrace_stack ]);
      ( "cb-log",
        [
          Alcotest.test_case "access attribution" `Quick test_trace_attributes_accesses;
          Alcotest.test_case "heap alloc site" `Quick test_trace_heap_alloc_site;
          Alcotest.test_case "offsets" `Quick test_trace_offsets;
          Alcotest.test_case "free retires segment" `Quick test_free_retires_segment;
        ] );
      ( "cb-analyze",
        [
          Alcotest.test_case "query 1: descendants" `Quick test_query1_includes_descendants;
          Alcotest.test_case "query 1: modes" `Quick test_query1_modes;
          Alcotest.test_case "query 2: procedures for data" `Quick test_query2_procedures_for_data;
          Alcotest.test_case "query 3: write sites" `Quick test_query3_write_sites;
          Alcotest.test_case "query 2: nested callgate attribution" `Quick
            test_query2_nested_gate_attribution;
          Alcotest.test_case "query 3: nested callgate descendants" `Quick
            test_query3_nested_gate_descendants;
          Alcotest.test_case "static overapproximation" `Quick test_overapproximation_is_superset;
          Alcotest.test_case "trace merging" `Quick test_merge_traces;
          Alcotest.test_case "save/load roundtrip" `Quick test_save_load_roundtrip;
          Alcotest.test_case "save/load escaping" `Quick test_save_load_escaping;
          Alcotest.test_case "load rejects garbage" `Quick test_load_rejects_garbage;
        ] );
      ( "emulation",
        [
          Alcotest.test_case "logs without killing" `Quick test_emulation_logs_without_killing;
          Alcotest.test_case "write needs rw" `Quick test_emulation_write_needs_rw;
          Alcotest.test_case "partial grants respected" `Quick test_emulation_respects_partial_grants;
          Alcotest.test_case "cblog backtraces in violations" `Quick
            test_emulation_with_cblog_backtraces;
        ] );
      ( "workflow",
        [ Alcotest.test_case "trace -> suggest -> partition" `Quick test_full_partitioning_workflow ]
      );
    ]
