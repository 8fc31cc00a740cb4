(* Policy synthesis: the profile printer/parser (round-trip property,
   positioned rejection of malformed input), the record -> synthesize ->
   enforce pipeline on a hand-rolled compartment, complain-mode counted
   instants, byte-identical determinism across record runs, and the
   grant-tightening matrix — dropping any single grant of any class must
   produce a deterministic contained Privilege_violation at a pinned
   site with a pinned message. *)

module Kernel = Wedge_kernel.Kernel
module Cost_model = Wedge_sim.Cost_model
module Fiber = Wedge_sim.Fiber
module SimTrace = Wedge_sim.Trace
module Fd_table = Wedge_kernel.Fd_table
module Process = Wedge_kernel.Process
module Prot = Wedge_kernel.Prot
module Chan = Wedge_net.Chan
module W = Wedge_core.Wedge
module Synth = Wedge_crowbar.Synth
module Profile = Wedge_crowbar.Synth.Profile
module Supervisor = Wedge_core.Supervisor
module Scenarios = Wedge_check.Scenarios

let check = Alcotest.check

(* ---------- profile printer/parser: property tests ---------- *)

(* Names may contain anything but '"' and newline; exercise spaces,
   braces, hashes and slashes on purpose. *)
let gen_name =
  QCheck.Gen.(
    let* n = int_range 1 12 in
    let alphabet = "abcz019._/-{}# " in
    let* cs = list_repeat n (int_range 0 (String.length alphabet - 1)) in
    return (String.concat "" (List.map (fun i -> String.make 1 alphabet.[i]) cs)))

let gen_uniq_names n_gen =
  QCheck.Gen.(
    let* names = list_size n_gen gen_name in
    return (List.sort_uniq compare names))

let gen_entry kind name =
  QCheck.Gen.(
    let* tag_names = gen_uniq_names (int_range 0 4) in
    let* tags =
      flatten_l
        (List.map
           (fun t ->
             let* g = oneofl [ Prot.R; Prot.RW; Prot.COW ] in
             return (t, g))
           tag_names)
    in
    let* fd_roles = gen_uniq_names (int_range 0 3) in
    let* fds =
      flatten_l
        (List.map
           (fun r ->
             let* m = oneofl [ Profile.Fd_r; Profile.Fd_w; Profile.Fd_rw ] in
             return (r, m))
           fd_roles)
    in
    let* gates = gen_uniq_names (int_range 0 3) in
    let* uid = opt (int_range 0 999) in
    let* root = opt gen_name in
    let* context = opt gen_name in
    return
      {
        Profile.e_kind = kind;
        e_name = name;
        e_tags = tags;
        e_fds = fds;
        e_gates = gates;
        e_uid = uid;
        e_root = root;
        e_context = context;
      })

let gen_profile =
  QCheck.Gen.(
    let* app = gen_name in
    let* sthread_names = gen_uniq_names (int_range 0 3) in
    let* gate_names = gen_uniq_names (int_range 0 3) in
    let* sthreads =
      flatten_l (List.map (fun n -> gen_entry Profile.Sthread n) sthread_names)
    in
    let* gates = flatten_l (List.map (fun n -> gen_entry Profile.Gate n) gate_names) in
    return { Profile.p_app = app; p_entries = sthreads @ gates })

let arb_profile =
  QCheck.make gen_profile ~print:(fun p -> Profile.print p)

let prop_print_parse_roundtrip =
  QCheck.Test.make ~name:"profile: parse (print p) = normalize p" ~count:200
    arb_profile (fun p ->
      match Profile.parse (Profile.print p) with
      | Ok p' -> Profile.equal p p'
      | Error e ->
          QCheck.Test.fail_reportf "parse failed at line %d: %s" e.Profile.pe_line
            e.Profile.pe_msg)

let prop_print_deterministic =
  QCheck.Test.make ~name:"profile: print is canonical (print . parse . print = print)"
    ~count:200 arb_profile (fun p ->
      let once = Profile.print p in
      match Profile.parse once with
      | Ok p' -> Profile.print p' = once
      | Error _ -> false)

(* ---------- parser rejection with positioned errors ---------- *)

let parse_err text =
  match Profile.parse text with
  | Ok _ -> Alcotest.failf "expected parse error for:\n%s" text
  | Error e -> e

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_parse_rejects_duplicates () =
  let e =
    parse_err "app \"x\"\nsthread \"w\" {\n  tag \"t\" r\n  tag \"t\" rw\n}\n"
  in
  check Alcotest.int "duplicate tag line" 4 e.Profile.pe_line;
  check Alcotest.bool "message names the tag" true (contains e.Profile.pe_msg "duplicate tag");
  let e = parse_err "app \"x\"\nsthread \"w\" {\n}\nsthread \"w\" {\n}\n" in
  check Alcotest.int "duplicate entry line" 4 e.Profile.pe_line;
  let e = parse_err "app \"x\"\nsthread \"w\" {\n  gate \"g\"\n  gate \"g\"\n}\n" in
  check Alcotest.int "duplicate gate line" 4 e.Profile.pe_line

let test_parse_rejects_malformed () =
  let e = parse_err "app \"x\"\nsthread \"w\" {\n  tag \"t\" w\n}\n" in
  check Alcotest.int "write-only tag line" 3 e.Profile.pe_line;
  check Alcotest.bool "write-only forbidden" true
    (contains e.Profile.pe_msg "write-only");
  let e = parse_err "app \"x\"\nsthread \"w\" {\n  uid -3\n}\n" in
  check Alcotest.int "bad uid line" 3 e.Profile.pe_line;
  let e = parse_err "app \"x\"\nsthread \"w\" {\n  tag \"unterminated\n}\n" in
  check Alcotest.int "unterminated string line" 3 e.Profile.pe_line;
  check Alcotest.bool "unterminated string" true
    (contains e.Profile.pe_msg "unterminated string");
  let e = parse_err "sthread \"w\" {\n}\n" in
  check Alcotest.bool "missing app" true (contains e.Profile.pe_msg "missing app");
  let e = parse_err "app \"x\"\nsthread \"w\" {\n  tag \"t\" r\n" in
  check Alcotest.bool "unterminated entry names its start" true
    (contains e.Profile.pe_msg "started at line 2");
  let e = parse_err "app \"x\"\nfrobnicate\n" in
  check Alcotest.int "unknown directive line" 2 e.Profile.pe_line

(* ---------- the pipeline on a hand-rolled compartment ---------- *)

(* One worker sthread + one callgate over two tags and a descriptor:
     worker: reads+writes tag unit.a, reads tag unit.b, writes the
             "conn" descriptor, invokes unit.gate;
     gate:   writes tag unit.b (its argument buffer).
   The synthesized profile has exactly five grants covering all four
   grant classes, so the tightening matrix below is exhaustive. *)
type unit_run = {
  u_status : Process.status;
  u_gate_result : int;
}

let run_unit synth =
  let k = Kernel.create ~costs:Cost_model.free () in
  SimTrace.arm ~capacity:(1 lsl 12) k.Kernel.trace;
  let app = W.create_app k in
  W.boot app;
  let main = W.main_ctx app in
  let tag_a = W.tag_new ~name:"unit.a" main in
  let tag_b = W.tag_new ~name:"unit.b" main in
  let a = W.smalloc main 16 tag_a in
  let b = W.smalloc main 16 tag_b in
  W.write_string main a "A";
  W.write_string main b "B";
  let out = ref None in
  Fiber.run ~policy:Fiber.Round_robin (fun () ->
      let peer, ours = Chan.pair ~costs:Cost_model.free () in
      let fd = W.add_endpoint main (Chan.to_endpoint ours) Fd_table.perm_rw in
      let conn_tags = [ tag_a; tag_b ] in
      let conn_fds = [ ("conn", fd) ] in
      let worker_sc =
        match
          Synth.sthread_sc synth ~name:"unit.worker" ~tags:conn_tags ~fds:conn_fds
            main
        with
        | Some sc -> sc
        | None ->
            (* Deliberately loose hand-written policy: RW on both tags. *)
            let sc = W.sc_create () in
            W.sc_mem_add sc tag_a Prot.RW;
            W.sc_mem_add sc tag_b Prot.RW;
            W.sc_fd_add sc fd Fd_table.perm_rw;
            sc
      in
      let cgsc =
        match Synth.gate_sc synth ~name:"unit.gate" ~tags:conn_tags main with
        | Some sc -> sc
        | None ->
            let sc = W.sc_create () in
            W.sc_mem_add sc tag_b Prot.RW;
            sc
      in
      let gate =
        W.sc_cgate_add main worker_sc ~name:"unit.gate"
          ~entry:
            (Synth.wrap_gate synth ~name:"unit.gate" (fun gctx ~trusted:_ ~arg ->
                 W.write_u8 gctx arg 1;
                 arg))
          ~cgsc ~trusted:0
      in
      let gate_result = ref 0 in
      let body ctx _ =
        ignore (W.read_u8 ctx a);
        W.write_u8 ctx a 7;
        ignore (W.read_u8 ctx b);
        W.fd_write ctx fd (Bytes.of_string "x");
        gate_result := W.cgate ctx gate ~perms:(W.sc_create ()) ~arg:b;
        0
      in
      (* Supervised: the outcome names a fault's reason. *)
      let status =
        match
          Supervisor.supervise main (fun () ->
              W.sthread_create main worker_sc
                (Synth.wrap_sthread synth ~name:"unit.worker" ~fds:conn_fds body)
                0)
        with
        | Ok _ -> Process.Exited 0
        | Error reason -> Process.Faulted reason
      in
      Chan.close peer;
      out := Some { u_status = status; u_gate_result = !gate_result });
  (Option.get !out, k)

let unit_profile () =
  let synth = Synth.create ~name:"unit" Synth.Record in
  let r, _ = run_unit (Some synth) in
  check Alcotest.bool "record run clean" true (r.u_status = Process.Exited 0);
  Synth.synthesize synth

let expected_unit_profile =
  "# wedge-synth profile v1\n\
   app \"unit\"\n\n\
   sthread \"unit.worker\" {\n\
   \  tag \"unit.a\" rw\n\
   \  tag \"unit.b\" r\n\
   \  fd \"conn\" w\n\
   \  gate \"unit.gate\"\n\
   }\n\n\
   gate \"unit.gate\" {\n\
   \  tag \"unit.b\" rw\n\
   }\n"

let test_unit_synthesis () =
  let p = unit_profile () in
  check Alcotest.string "synthesized profile text" expected_unit_profile
    (Profile.print p);
  match Profile.parse (Profile.print p) with
  | Ok p' -> check Alcotest.bool "round-trips" true (Profile.equal p p')
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e.Profile.pe_msg

let test_unit_record_deterministic () =
  let p1 = unit_profile () in
  let p2 = unit_profile () in
  check Alcotest.string "two record runs, identical bytes" (Profile.print p1)
    (Profile.print p2)

let test_unit_enforce_clean () =
  let p = unit_profile () in
  let synth = Synth.create ~name:"unit" (Synth.Enforce p) in
  let r, _ = run_unit (Some synth) in
  check Alcotest.bool "enforced run clean" true (r.u_status = Process.Exited 0);
  check Alcotest.int "no denials" 0 (List.length (Synth.denials synth));
  check Alcotest.(list string) "observed within installed" []
    (Synth.diff ~installed:p ~observed:(Synth.synthesize synth));
  check Alcotest.(option string) "oracle invariant holds" None
    (Synth.self_check synth ())

let class_to_string = function
  | Synth.Tag_read -> "tag-read"
  | Synth.Tag_write -> "tag-write"
  | Synth.Fd_use -> "fd"
  | Synth.Gate_call -> "gate"

let grant_ref_to_string (r : Synth.grant_ref) =
  Printf.sprintf "%s %s: %s %s"
    (match r.gr_kind with Profile.Sthread -> "sthread" | Profile.Gate -> "gate")
    r.gr_entry (class_to_string r.gr_class) r.gr_name

(* The profile with exactly that one grant removed or downgraded, or
   [None] if the profile does not contain it. *)
let tighten p (r : Synth.grant_ref) =
  let found = ref false in
  let entries =
    List.map
      (fun (e : Profile.entry) ->
        if e.e_kind <> r.gr_kind || e.e_name <> r.gr_entry then e
        else
          match r.gr_class with
          | Synth.Tag_read ->
              {
                e with
                e_tags =
                  List.filter
                    (fun (t, g) ->
                      let hit = t = r.gr_name && g <> Prot.RW in
                      if hit then found := true;
                      not hit)
                    e.e_tags;
              }
          | Synth.Tag_write ->
              {
                e with
                e_tags =
                  List.map
                    (fun (t, g) ->
                      if t = r.gr_name && g = Prot.RW then begin
                        found := true;
                        (t, Prot.R)
                      end
                      else (t, g))
                    e.e_tags;
              }
          | Synth.Fd_use ->
              {
                e with
                e_fds =
                  List.filter
                    (fun (role, _) ->
                      let hit = role = r.gr_name in
                      if hit then found := true;
                      not hit)
                    e.e_fds;
              }
          | Synth.Gate_call ->
              {
                e with
                e_gates =
                  List.filter
                    (fun g ->
                      let hit = g = r.gr_name in
                      if hit then found := true;
                      not hit)
                    e.e_gates;
              })
      p.Profile.p_entries
  in
  if !found then Some (Synth.For_testing.normalize { p with Profile.p_entries = entries })
  else None

(* The tightening matrix: one case per grant class, each pinning the
   violation site (which compartment dies, what the gate returns) and the
   exact deterministic denial message. *)
let tighten_exn p gref =
  match tighten p gref with
  | Some p' -> p'
  | None -> Alcotest.failf "grant not found: %s" (grant_ref_to_string gref)

let test_unit_tightening_matrix () =
  let p = unit_profile () in
  let grefs = Synth.grants p in
  check Alcotest.int "five grants" 5 (List.length grefs);
  let run_tightened gref =
    let synth = Synth.create ~name:"unit" (Synth.Enforce (tighten_exn p gref)) in
    let r, _ = run_unit (Some synth) in
    (r, Synth.denials synth)
  in
  let cases =
    [
      ( { Synth.gr_kind = Profile.Sthread; gr_entry = "unit.worker";
          gr_class = Synth.Tag_write; gr_name = "unit.a" },
        "profile unit.worker: write to tag unit.a denied (granted r)",
        `Worker_faults );
      ( { Synth.gr_kind = Profile.Sthread; gr_entry = "unit.worker";
          gr_class = Synth.Tag_read; gr_name = "unit.b" },
        "profile unit.worker: read of tag unit.b denied (not granted)",
        `Worker_faults );
      ( { Synth.gr_kind = Profile.Sthread; gr_entry = "unit.worker";
          gr_class = Synth.Fd_use; gr_name = "conn" },
        "profile unit.worker: fd conn denied (not granted)",
        `Worker_faults );
      ( { Synth.gr_kind = Profile.Sthread; gr_entry = "unit.worker";
          gr_class = Synth.Gate_call; gr_name = "unit.gate" },
        "profile unit.worker: callgate unit.gate denied (not granted)",
        `Worker_faults );
      ( { Synth.gr_kind = Profile.Gate; gr_entry = "unit.gate";
          gr_class = Synth.Tag_write; gr_name = "unit.b" },
        "profile unit.gate: write to tag unit.b denied (granted r)",
        `Gate_faults );
    ]
  in
  List.iter
    (fun (gref, expect_msg, site) ->
      let what = grant_ref_to_string gref in
      let r, denials = run_tightened gref in
      (match denials with
      | [ (msg, n) ] ->
          check Alcotest.string (what ^ ": denial message") expect_msg msg;
          check Alcotest.bool (what ^ ": counted") true (n >= 1)
      | l -> Alcotest.failf "%s: expected one denial, got %d" what (List.length l));
      match site with
      | `Worker_faults ->
          check Alcotest.bool (what ^ ": worker dies contained") true
            (r.u_status = Process.Faulted ("policy: " ^ expect_msg))
      | `Gate_faults ->
          (* A faulting gate yields -1 to its caller; the worker itself
             survives (the violation is contained inside the gate). *)
          check Alcotest.int (what ^ ": gate returns -1") (-1) r.u_gate_result;
          check Alcotest.bool (what ^ ": worker survives") true
            (r.u_status = Process.Exited 0))
    cases

let test_unit_complain_counts_instants () =
  (* Complain mode: the loose hand-written policy stays in force, the
     workload completes, and every would-be violation of the tightened
     profile is tallied and counted as a "policy.complain" trace instant. *)
  let p = unit_profile () in
  let gref =
    { Synth.gr_kind = Profile.Sthread; gr_entry = "unit.worker";
      gr_class = Synth.Tag_read; gr_name = "unit.b" }
  in
  let synth = Synth.create ~name:"unit" (Synth.Complain (tighten_exn p gref)) in
  let r, _ = run_unit (Some synth) in
  check Alcotest.bool "complain run still completes" true
    (r.u_status = Process.Exited 0);
  (match Synth.complaints synth with
  | [ (msg, n) ] ->
      check Alcotest.string "complaint message"
        "profile unit.worker: read of tag unit.b denied (not granted)" msg;
      check Alcotest.bool "at least one complaint" true (n >= 1)
  | l -> Alcotest.failf "expected one complaint kind, got %d" (List.length l));
  check Alcotest.int "no denials in complain mode" 0
    (List.length (Synth.denials synth))

let test_unit_complain_trace_instants () =
  (* Same run with the kernel trace armed: the complain count and the
     "policy.complain" instant count in the trace ring must agree. *)
  let p = unit_profile () in
  let gref =
    { Synth.gr_kind = Profile.Sthread; gr_entry = "unit.worker";
      gr_class = Synth.Tag_read; gr_name = "unit.b" }
  in
  let synth = Synth.create ~name:"unit" (Synth.Complain (tighten_exn p gref)) in
  let r, k = run_unit (Some synth) in
  check Alcotest.bool "complain run completes" true (r.u_status = Process.Exited 0);
  let total = List.fold_left (fun a (_, n) -> a + n) 0 (Synth.complaints synth) in
  check Alcotest.bool "complaints happened" true (total > 0);
  check Alcotest.int "counted as policy.complain instants" total
    (SimTrace.For_testing.instants_named k.Kernel.trace ~name:"policy.complain")

(* ---------- the real servers ---------- *)

let test_httpd_profile_minimal_and_deterministic () =
  let p1 = Scenarios.synth_record ~app:"httpd" ~seed:1 in
  let p2 = Scenarios.synth_record ~app:"httpd" ~seed:1 in
  check Alcotest.string "byte-identical across record runs" (Profile.print p1)
    (Profile.print p2);
  (match Profile.parse (Profile.print p1) with
  | Ok p' -> check Alcotest.bool "round-trips" true (Profile.equal p1 p')
  | Error e -> Alcotest.failf "parse failed: %s" e.Profile.pe_msg);
  (* The profile grants the worker neither the private key nor the
     session cache: those live only behind the callgate. *)
  match Synth.For_testing.find p1 Profile.Sthread "httpd.worker" with
  | None -> Alcotest.fail "no httpd.worker entry"
  | Some e ->
      check Alcotest.bool "worker has no privkey grant" false
        (List.mem_assoc "httpd.privkey" e.Profile.e_tags);
      check Alcotest.bool "worker has no session-cache grant" false
        (List.mem_assoc "ssl.session_cache" e.Profile.e_tags);
      check Alcotest.(option int) "worker drops to uid 33" (Some 33)
        e.Profile.e_uid

let test_httpd_enforce_clean () =
  let p = Scenarios.synth_record ~app:"httpd" ~seed:1 in
  let ok, summary, synth = Scenarios.synth_rerun ~app:"httpd" ~seed:1 (Synth.Enforce p) in
  check Alcotest.bool ("enforced workload ok: " ^ summary) true ok;
  check Alcotest.int "no denials" 0 (List.length (Synth.denials synth));
  check Alcotest.(option string) "superset invariant" None (Synth.self_check synth ())

let test_httpd_tightening_matrix () =
  (* Adversarial minimality on the real server: dropping ANY single grant
     from the synthesized profile must deny at least one access of the
     same workload, deterministically, and the denial must name the
     tightened grant. *)
  let p = Scenarios.synth_record ~app:"httpd" ~seed:1 in
  let grefs = Synth.grants p in
  check Alcotest.bool "profile has grants" true (grefs <> []);
  List.iter
    (fun gref ->
      let what = grant_ref_to_string gref in
      let p' = tighten_exn p gref in
      let ok, _summary, synth = Scenarios.synth_rerun ~app:"httpd" ~seed:1 (Synth.Enforce p') in
      let denials = Synth.denials synth in
      check Alcotest.bool (what ^ ": denied") true (denials <> []);
      check Alcotest.bool (what ^ ": denial names the grant") true
        (List.exists (fun (m, _) -> contains m gref.Synth.gr_name) denials);
      (* Every denial is a real behavior change: either the workload
         degrades or the violation was contained inside a compartment. *)
      ignore ok)
    grefs

let test_pop3_sshd_deterministic () =
  let p1 = Scenarios.synth_record ~app:"pop3" ~seed:0 in
  let p2 = Scenarios.synth_record ~app:"pop3" ~seed:0 in
  check Alcotest.string "pop3 byte-identical" (Profile.print p1) (Profile.print p2);
  let s1 = Scenarios.synth_record ~app:"sshd" ~seed:1 in
  let s2 = Scenarios.synth_record ~app:"sshd" ~seed:1 in
  check Alcotest.string "sshd byte-identical" (Profile.print s1) (Profile.print s2);
  (* pop3: only the login gate may write the uid tag, and the worker
     cannot even read it — the paper's Figure 1 property, synthesized. *)
  (match Synth.For_testing.find p1 Profile.Sthread "pop3.worker" with
  | Some e ->
      check Alcotest.bool "worker blind to uid tag" false
        (List.mem_assoc "pop3.uid" e.Profile.e_tags)
  | None -> Alcotest.fail "no pop3.worker entry");
  match Synth.For_testing.find p1 Profile.Gate "pop3.login" with
  | Some e ->
      check Alcotest.bool "login gate writes uid tag" true
        (List.assoc_opt "pop3.uid" e.Profile.e_tags = Some Prot.RW)
  | None -> Alcotest.fail "no pop3.login entry"

let () =
  Alcotest.run "wedge_synth"
    [
      ( "printer-parser",
        [
          Test_rng.to_alcotest prop_print_parse_roundtrip;
          Test_rng.to_alcotest prop_print_deterministic;
          Alcotest.test_case "rejects duplicates (positioned)" `Quick
            test_parse_rejects_duplicates;
          Alcotest.test_case "rejects malformed (positioned)" `Quick
            test_parse_rejects_malformed;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "record -> synthesize (exact profile)" `Quick
            test_unit_synthesis;
          Alcotest.test_case "record is deterministic" `Quick
            test_unit_record_deterministic;
          Alcotest.test_case "enforce: clean workload stays clean" `Quick
            test_unit_enforce_clean;
          Alcotest.test_case "tightening matrix (all grant classes)" `Quick
            test_unit_tightening_matrix;
          Alcotest.test_case "complain mode tallies, never kills" `Quick
            test_unit_complain_counts_instants;
          Alcotest.test_case "complain instants land in the trace" `Quick
            test_unit_complain_trace_instants;
        ] );
      ( "servers",
        [
          Alcotest.test_case "httpd: minimal + deterministic" `Quick
            test_httpd_profile_minimal_and_deterministic;
          Alcotest.test_case "httpd: enforce clean" `Quick test_httpd_enforce_clean;
          Alcotest.test_case "httpd: tightening matrix" `Quick
            test_httpd_tightening_matrix;
          Alcotest.test_case "pop3/sshd: deterministic + Figure 1 property" `Quick
            test_pop3_sshd_deterministic;
        ] );
    ]
