(* Tests for the correctness harness itself: the invariant oracles, the
   differential reference model, schedule exploration + shrinking, and
   pinned regressions for bugs the oracles originally surfaced. *)

module Physmem = Wedge_kernel.Physmem
module Pagetable = Wedge_kernel.Pagetable
module Vm = Wedge_kernel.Vm
module Prot = Wedge_kernel.Prot
module Rlimit = Wedge_kernel.Rlimit
module Kernel = Wedge_kernel.Kernel
module Clock = Wedge_sim.Clock
module Cost_model = Wedge_sim.Cost_model
module Fiber = Wedge_sim.Fiber
module Oracle = Wedge_check.Oracle
module Refvm = Wedge_check.Refvm
module Scenarios = Wedge_check.Scenarios
module Explore = Wedge_check.Explore

let check = Alcotest.check
let ps = Physmem.page_size

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ---------- Oracle ---------- *)

let test_oracle_clean_on_fresh_kernel () =
  let k = Kernel.create ~costs:Cost_model.free () in
  let o = Oracle.create k in
  Oracle.check o;
  check Alcotest.int "one check ran" 1 (Oracle.checks_run o)

let test_oracle_catches_refcount_drift () =
  let k = Kernel.create ~costs:Cost_model.free () in
  let p = Kernel.new_process k ~kind:Wedge_kernel.Process.Main ~uid:0 ~root:"/" ~sid:"sys" () in
  Vm.map_fresh p.Wedge_kernel.Process.vm ~addr:0x10000 ~pages:1
    ~prot:Prot.page_rw ~tag:None;
  let o = Oracle.create k in
  Oracle.check o;
  (* Leak a reference behind the kernel's back: the frame now counts 2
     holders but only 1 mapping exists. *)
  (match Pagetable.find (Vm.page_table p.Wedge_kernel.Process.vm) ~vpn:(0x10000 / ps) with
  | Some pte -> Physmem.incref k.Kernel.pm pte.Pagetable.frame
  | None -> Alcotest.fail "page vanished");
  match Oracle.check o with
  | () -> Alcotest.fail "oracle missed the leaked reference"
  | exception Oracle.Violation msg ->
      check Alcotest.bool "names refcounts" true (contains msg "refcount")

(* Every unwritten frame reads through the kernel's one zero page, so a
   write through the read view ([Physmem.get]) to an unwritten frame
   lands in all of them: the oracle must flag it. *)
let test_oracle_catches_dirty_zero_page () =
  let k = Kernel.create ~costs:Cost_model.free () in
  let p = Kernel.new_process k ~kind:Wedge_kernel.Process.Main ~uid:0 ~root:"/" ~sid:"sys" () in
  let vm = p.Wedge_kernel.Process.vm in
  Vm.map_fresh vm ~addr:0x10000 ~pages:2 ~prot:Prot.page_rw ~tag:None;
  let o = Oracle.create k in
  Oracle.check o;
  (match Pagetable.find (Vm.page_table vm) ~vpn:(0x10000 / ps) with
  | Some pte -> Bytes.set (Physmem.get k.Kernel.pm pte.Pagetable.frame) 0 'x'
  | None -> Alcotest.fail "page vanished");
  check Alcotest.int "the other unwritten page sees the stray write" (Char.code 'x')
    (Vm.read_u8 vm 0x11000);
  match Oracle.check o with
  | () -> Alcotest.fail "oracle missed a write through the read view"
  | exception Oracle.Violation msg ->
      check Alcotest.bool "names the zero page" true (contains msg "zero page")

let test_oracle_catches_quota_drift () =
  let k = Kernel.create ~costs:Cost_model.free () in
  let p =
    Kernel.new_process k ~limits:(Rlimit.create ~max_frames:8 ())
      ~kind:Wedge_kernel.Process.Main ~uid:0 ~root:"/" ~sid:"sys" ()
  in
  let vm = p.Wedge_kernel.Process.vm in
  Vm.map_fresh vm ~addr:0x10000 ~pages:2 ~prot:Prot.page_rw ~tag:None;
  let o = Oracle.create k in
  Oracle.check o;
  (* Charge a unit for a frame that was never allocated. *)
  Rlimit.charge_frames p.Wedge_kernel.Process.limits 1;
  (match Oracle.check o with
  | () -> Alcotest.fail "oracle missed the phantom charge"
  | exception Oracle.Violation msg ->
      check Alcotest.bool "names the charge" true (contains msg "charged"));
  Rlimit.release_frames p.Wedge_kernel.Process.limits 1;
  Oracle.check o

let test_oracle_custom_invariant () =
  let k = Kernel.create ~costs:Cost_model.free () in
  let o = Oracle.create k in
  let armed = ref false in
  Oracle.add_invariant o ~name:"never" (fun () ->
      if !armed then Some "tripped" else None);
  Oracle.check o;
  armed := true;
  match Oracle.check o with
  | () -> Alcotest.fail "custom invariant ignored"
  | exception Oracle.Violation msg ->
      check Alcotest.bool "named" true (contains msg "never")

let test_oracle_hook_stride () =
  let k = Kernel.create ~costs:Cost_model.free () in
  let o = Oracle.create k in
  let h = Oracle.hook ~stride:3 o in
  for _ = 1 to 10 do
    h ()
  done;
  check Alcotest.int "10 switches / stride 3" 3 (Oracle.checks_run o)

(* ---------- Refvm (differential reference model) ---------- *)

let test_refvm_lockstep_clean () =
  let k = Kernel.create ~costs:Cost_model.free () in
  let p = Kernel.new_process k ~kind:Wedge_kernel.Process.Main ~uid:0 ~root:"/" ~sid:"sys" () in
  let vm = p.Wedge_kernel.Process.vm in
  let r = Refvm.create k in
  Refvm.arm r;
  Fun.protect ~finally:(fun () -> Refvm.disarm r) @@ fun () ->
  Vm.map_fresh vm ~addr:0x10000 ~pages:2 ~prot:Prot.page_rw ~tag:None;
  Vm.write_u64 vm 0x10008 0x1234_5678;
  check Alcotest.int "readback" 0x1234_5678 (Vm.read_u64 vm 0x10008);
  Vm.write_bytes vm 0x10100 (Bytes.of_string "differential");
  ignore (Vm.read_bytes vm 0x10100 12);
  Vm.unmap_range vm ~addr:0x11000 ~pages:1;
  Refvm.verify r;
  check Alcotest.bool "events flowed" true (Refvm.events r > 0)

let test_refvm_catches_silent_corruption () =
  let k = Kernel.create ~costs:Cost_model.free () in
  let p = Kernel.new_process k ~kind:Wedge_kernel.Process.Main ~uid:0 ~root:"/" ~sid:"sys" () in
  let vm = p.Wedge_kernel.Process.vm in
  let r = Refvm.create k in
  Refvm.arm r;
  Fun.protect ~finally:(fun () -> Refvm.disarm r) @@ fun () ->
  Vm.map_fresh vm ~addr:0x10000 ~pages:1 ~prot:Prot.page_rw ~tag:None;
  Vm.write_u64 vm 0x10000 42;
  (* Corrupt the frame behind the recorder's back — a model of a store
     that bypassed the MMU. *)
  (match Pagetable.find (Vm.page_table vm) ~vpn:(0x10000 / ps) with
  | Some pte -> Bytes.set (Physmem.get_mut k.Kernel.pm pte.Pagetable.frame) 0 '\xff'
  | None -> Alcotest.fail "page vanished");
  match Vm.read_u64 vm 0x10000 with
  | _ -> Alcotest.fail "model agreed with corrupted bytes"
  | exception Refvm.Mismatch msg ->
      check Alcotest.bool "read diff caught" true (contains msg "read")

let test_refvm_verify_catches_drift () =
  let k = Kernel.create ~costs:Cost_model.free () in
  let p = Kernel.new_process k ~kind:Wedge_kernel.Process.Main ~uid:0 ~root:"/" ~sid:"sys" () in
  let vm = p.Wedge_kernel.Process.vm in
  let r = Refvm.create k in
  Refvm.arm r;
  Fun.protect ~finally:(fun () -> Refvm.disarm r) @@ fun () ->
  Vm.map_fresh vm ~addr:0x10000 ~pages:1 ~prot:Prot.page_rw ~tag:None;
  (match Pagetable.find (Vm.page_table vm) ~vpn:(0x10000 / ps) with
  | Some pte -> Bytes.set (Physmem.get_mut k.Kernel.pm pte.Pagetable.frame) 7 'z'
  | None -> Alcotest.fail "page vanished");
  match Refvm.verify r with
  | () -> Alcotest.fail "verify missed divergent content"
  | exception Refvm.Mismatch _ -> ()

let test_refvm_cow_sharing () =
  let k = Kernel.create ~costs:Cost_model.free () in
  let p1 = Kernel.new_process k ~kind:Wedge_kernel.Process.Main ~uid:0 ~root:"/" ~sid:"sys" () in
  let p2 = Kernel.new_process k ~kind:Wedge_kernel.Process.Sthread ~uid:0 ~root:"/" ~sid:"sys" () in
  let v1 = p1.Wedge_kernel.Process.vm and v2 = p2.Wedge_kernel.Process.vm in
  let r = Refvm.create k in
  Refvm.arm r;
  Fun.protect ~finally:(fun () -> Refvm.disarm r) @@ fun () ->
  Vm.map_fresh v1 ~addr:0x10000 ~pages:1 ~prot:Prot.page_rw ~tag:None;
  Vm.write_u64 v1 0x10000 7;
  (* Share COW into the second space, then write in each: one break. *)
  Vm.share_range ~src:v1 ~dst:v2 ~addr:0x10000 ~pages:1 ~prot:Prot.page_cow;
  Vm.protect_range v1 ~addr:0x10000 ~pages:1 ~prot:Prot.page_cow;
  Vm.write_u64 v2 0x10000 8;
  Vm.write_u64 v1 0x10000 9;
  check Alcotest.int "v2 copy" 8 (Vm.read_u64 v2 0x10000);
  check Alcotest.int "v1 copy" 9 (Vm.read_u64 v1 0x10000);
  Refvm.verify r

(* ---------- Exploration: determinism, bug finding, shrinking ---------- *)

let test_explore_deterministic () =
  let run () =
    Explore.explore ~schedules:4 ~scenario:"pop3" ~seed:11 ()
    |> Explore.verdict_to_string
  in
  let a = run () and b = run () in
  check Alcotest.string "same seed, same digest" a b;
  check Alcotest.bool "passed" true (contains a "PASSED")

let test_explore_seed_changes_digest () =
  let digest seed =
    Explore.explore ~schedules:3 ~scenario:"pop3" ~seed ()
    |> Explore.verdict_to_string
  in
  check Alcotest.bool "different seeds explore different schedules" true
    (digest 1 <> digest 2)

let test_decision_trace_deterministic () =
  let trace seed =
    (try
       ignore
         (Scenarios.(
            match find "racy" with Some s -> s.s_run | None -> assert false)
            ~policy:(Fiber.Random seed) ~diff:false ~faults:false ~seed)
     with _ -> ());
    Fiber.last_decisions ()
  in
  check Alcotest.bool "same seed, identical decisions" true
    (trace 7 = trace 7);
  check Alcotest.bool "trace nonempty" true (Array.length (trace 7) > 0)

let test_explore_catches_and_shrinks_racy () =
  (* The deliberately racy scenario: a lost update only schedules that
     interleave a yielding read-modify-write can expose.  Round_robin
     never fires it; random exploration must, and the shrunk trace must
     still reproduce under Replay. *)
  (match
     Scenarios.(match find "racy" with Some s -> s.s_run | None -> assert false)
       ~policy:Fiber.Round_robin ~diff:false ~faults:false ~seed:1
   with
  | _ -> ()
  | exception e ->
      Alcotest.failf "racy fired under round-robin: %s" (Printexc.to_string e));
  match Explore.explore ~schedules:50 ~scenario:"racy" ~seed:7 () with
  | Explore.Passed _ -> Alcotest.fail "exploration missed the seeded race"
  | Explore.Failed { x_exn; x_confirmed; x_shrunk; x_decisions; x_repro; x_seed; _ } ->
      check Alcotest.bool "violation named" true (contains x_exn "lost update");
      check Alcotest.bool "replay-confirmed" true x_confirmed;
      check Alcotest.bool "shrunk no longer than original" true
        (Array.length x_shrunk <= Array.length x_decisions);
      check Alcotest.bool "repro names the cli" true
        (contains x_repro "wedge_cli check --scenario racy");
      check Alcotest.bool "repro pins the failing seed" true
        (contains x_repro (Printf.sprintf "--seed %d" x_seed));
      (* The minimal trace reproduces the failure on its own. *)
      (match
         Explore.replay ~faults:false ~scenario:"racy" ~seed:x_seed
           ~trace:x_shrunk ()
       with
      | _ -> Alcotest.fail "shrunk trace no longer fails"
      | exception _ -> ());
      (* And the seed alone reproduces it too (policy is pure in seed). *)
      (match Explore.explore ~schedules:1 ~scenario:"racy" ~seed:x_seed () with
      | Explore.Failed { x_index; _ } -> check Alcotest.int "same schedule index" 0 x_index
      | Explore.Passed _ -> Alcotest.fail "seed repro did not reproduce")

let test_explore_unknown_scenario_rejected () =
  match Explore.explore ~schedules:1 ~scenario:"nope" ~seed:1 () with
  | _ -> Alcotest.fail "unknown scenario accepted"
  | exception Invalid_argument msg ->
      check Alcotest.bool "lists known names" true (contains msg "racy")

(* The acceptance sweep: >= 100 schedules across the three partitioned
   servers under Byzantine clients and armed fault plans, oracles clean.
   Differential checking rides along on a subset of each. *)
let sweep scenario ~schedules ~diff_schedules =
  (match Explore.explore ~schedules ~scenario ~seed:2026 () with
  | Explore.Passed _ -> ()
  | Explore.Failed _ as v -> Alcotest.failf "%s" (Explore.verdict_to_string v));
  match Explore.explore ~schedules:diff_schedules ~diff:true ~scenario ~seed:31 () with
  | Explore.Passed _ -> ()
  | Explore.Failed _ as v -> Alcotest.failf "%s" (Explore.verdict_to_string v)

let test_sweep_pop3 () = sweep "pop3" ~schedules:35 ~diff_schedules:5
let test_sweep_httpd () = sweep "httpd" ~schedules:35 ~diff_schedules:5
let test_sweep_sshd () = sweep "sshd" ~schedules:35 ~diff_schedules:5

let test_sweep_pct_policy () =
  List.iter
    (fun scenario ->
      match Explore.explore ~schedules:8 ~policy:`Pct ~scenario ~seed:5 () with
      | Explore.Passed _ -> ()
      | Explore.Failed _ as v -> Alcotest.failf "%s" (Explore.verdict_to_string v))
    [ "pop3"; "httpd"; "sshd" ]

(* ---------- Pinned scenario digests ---------- *)

(* Every scenario's exploration digest at seed 1 over 5 schedules,
   pinned.  The determinism tests above only compare two runs of the
   same code, so a refactor that changes behaviour deterministically
   would pass them; this catches it.  A deliberate behaviour change
   re-pins the whole table at once. *)
let pinned_digests =
  [
    ("pop3", "e30e0d870b6f893ae12b690243b3411d");
    ("httpd", "bc8a970cbfb9e328380de3ba1ea2e41e");
    ("sshd", "4cc6a75def9b7216b7c200bbe9e89d08");
    ("httpd_mitm", "057e5138d8b11a473f5417952963c941");
    ("httpd_mitm_recycle", "67a334420d72a91f4eb1eecf838409fa");
    ("httpd_storm", "4109adb5f7b2d0f63a45e87aee68f81f");
    ("pop3_storm", "434ac61be4b1f74bc7e1fd26445a7e42");
    ("sshd_storm", "70efdcd6638e9cc5eef6ac35d00e1c73");
    ("httpd_mitm_storm", "d66f303f942e6312e0b27cb33781184a");
    ("httpd_pool_storm", "341bd60b2eee76b159c7a55eeab239e0");
    ("pop3_pool_storm", "40488ec7fc1a43793e3485d054ab141b");
    ("sshd_pool_storm", "1e1bb536a2d87101fa4a2a40ba661501");
    ("httpd_mitm_pool_storm", "788d490e82f9e623bbce0b8d11633a19");
    ("httpd_sharded", "ef78c03ec41cc1f6bf7860e41753972b");
    ("pop3_sharded", "6436f649b3f640a759faeda5b341deb4");
    ("sshd_sharded", "54f78077f042faca01a281508896bbbe");
    ("httpd_mitm_sharded", "286e2f1f5d73e54d2d547d0336f128ae");
    ("httpd_synth", "68443f6502534fa9574c44224284ad76");
    ("pop3_synth", "ca935ca738a8f81975ea03f0d06f1421");
    ("sshd_synth", "cc5d77da265451769ff0e746def8d92f");
  ]

let test_pinned_digests () =
  let explored = List.filter (fun n -> n <> "racy") (Scenarios.names ()) in
  check
    Alcotest.(list string)
    "every scenario but racy is pinned" (List.map fst pinned_digests) explored;
  List.iter
    (fun (scenario, pinned) ->
      match Explore.explore ~schedules:5 ~scenario ~seed:1 () with
      | Explore.Failed _ as v -> Alcotest.failf "%s" (Explore.verdict_to_string v)
      | Explore.Passed { p_digest; _ } ->
          if p_digest <> pinned then
            Alcotest.failf
              "%s: digest %s, pinned %s; re-pin from `dune exec bin/wedge_cli.exe -- check \
               --scenario all --schedules 5 --seed 1`"
              scenario p_digest pinned)
    pinned_digests

(* ---------- Pinned regressions the oracles originally surfaced ---------- *)

let test_regression_cow_break_no_double_charge () =
  (* A COW break of a page this address space itself allocated (fork
     downgraded it, then the owner wrote) used to charge a second quota
     unit for the same vpn; the unmap then released only one, leaving
     the rlimit permanently inflated. *)
  let k = Kernel.create ~costs:Cost_model.free () in
  let p1 =
    Kernel.new_process k ~limits:(Rlimit.create ~max_frames:4 ())
      ~kind:Wedge_kernel.Process.Main ~uid:0 ~root:"/" ~sid:"sys" ()
  in
  let p2 = Kernel.new_process k ~kind:Wedge_kernel.Process.Sthread ~uid:0 ~root:"/" ~sid:"sys" () in
  let v1 = p1.Wedge_kernel.Process.vm in
  Vm.map_fresh v1 ~addr:0x10000 ~pages:1 ~prot:Prot.page_rw ~tag:None;
  check Alcotest.int "one unit charged" 1
    (Rlimit.frames_used p1.Wedge_kernel.Process.limits);
  Vm.share_range ~src:v1 ~dst:p2.Wedge_kernel.Process.vm ~addr:0x10000 ~pages:1
    ~prot:Prot.page_cow;
  Vm.protect_range v1 ~addr:0x10000 ~pages:1 ~prot:Prot.page_cow;
  (* Owner writes: COW break copies the shared frame — same vpn, still
     one private frame, still one unit. *)
  Vm.write_u64 v1 0x10000 1;
  check Alcotest.int "still one unit after self-COW break" 1
    (Rlimit.frames_used p1.Wedge_kernel.Process.limits);
  check Alcotest.int "one owned vpn" 1 (Vm.owned_count v1);
  Vm.unmap_range v1 ~addr:0x10000 ~pages:1;
  check Alcotest.int "released down to zero" 0
    (Rlimit.frames_used p1.Wedge_kernel.Process.limits);
  let o = Oracle.create k in
  Oracle.check o

let test_regression_failed_alloc_rolls_back_charge () =
  (* The quota charge happens before the physical allocation; when the
     allocation itself fails the charge must be rolled back, or the
     rlimit counts a frame that never existed and the unit can never be
     released (the vpn was never mapped). *)
  let pm = Physmem.create ~max_frames:2 () in
  let lim = Rlimit.create ~max_frames:100 () in
  let vm = Vm.create ~limits:lim ~pid:1 pm (Clock.create ()) Cost_model.free in
  Vm.map_fresh vm ~addr:0x10000 ~pages:2 ~prot:Prot.page_rw ~tag:None;
  check Alcotest.int "two units" 2 (Rlimit.frames_used lim);
  (match Vm.map_fresh vm ~addr:0x12000 ~pages:1 ~prot:Prot.page_rw ~tag:None with
  | () -> Alcotest.fail "expected allocation failure"
  | exception _ -> ());
  check Alcotest.int "failed alloc left no phantom charge" 2
    (Rlimit.frames_used lim);
  check Alcotest.int "owned matches mapped" 2 (Vm.owned_count vm)

(* ---------- Suite ---------- *)

let () =
  Alcotest.run "check"
    [
      ( "oracle",
        [
          Alcotest.test_case "clean on fresh kernel" `Quick test_oracle_clean_on_fresh_kernel;
          Alcotest.test_case "catches refcount drift" `Quick test_oracle_catches_refcount_drift;
          Alcotest.test_case "catches quota drift" `Quick test_oracle_catches_quota_drift;
          Alcotest.test_case "catches a dirty zero page" `Quick
            test_oracle_catches_dirty_zero_page;
          Alcotest.test_case "custom invariant" `Quick test_oracle_custom_invariant;
          Alcotest.test_case "hook stride" `Quick test_oracle_hook_stride;
        ] );
      ( "refvm",
        [
          Alcotest.test_case "lockstep clean" `Quick test_refvm_lockstep_clean;
          Alcotest.test_case "catches silent corruption" `Quick test_refvm_catches_silent_corruption;
          Alcotest.test_case "verify catches drift" `Quick test_refvm_verify_catches_drift;
          Alcotest.test_case "cow sharing" `Quick test_refvm_cow_sharing;
        ] );
      ( "explore",
        [
          Alcotest.test_case "deterministic" `Quick test_explore_deterministic;
          Alcotest.test_case "seed changes digest" `Quick test_explore_seed_changes_digest;
          Alcotest.test_case "decision trace deterministic" `Quick test_decision_trace_deterministic;
          Alcotest.test_case "catches and shrinks racy" `Quick test_explore_catches_and_shrinks_racy;
          Alcotest.test_case "unknown scenario rejected" `Quick test_explore_unknown_scenario_rejected;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "pop3 35+5 schedules" `Slow test_sweep_pop3;
          Alcotest.test_case "httpd 35+5 schedules" `Slow test_sweep_httpd;
          Alcotest.test_case "sshd 35+5 schedules" `Slow test_sweep_sshd;
          Alcotest.test_case "pct policy" `Slow test_sweep_pct_policy;
          Alcotest.test_case "pinned digests" `Slow test_pinned_digests;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "cow break no double charge" `Quick
            test_regression_cow_break_no_double_charge;
          Alcotest.test_case "failed alloc rolls back charge" `Quick
            test_regression_failed_alloc_rolls_back_charge;
        ] );
    ]
