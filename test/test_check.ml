(* Tests for the correctness harness itself: the invariant oracles, the
   differential reference model, and schedule exploration + shrinking. *)

module Physmem = Wedge_kernel.Physmem
module Pagetable = Wedge_kernel.Pagetable
module Vm = Wedge_kernel.Vm
module Prot = Wedge_kernel.Prot
module Kernel = Wedge_kernel.Kernel
module Clock = Wedge_sim.Clock
module Cost_model = Wedge_sim.Cost_model
module Fiber = Wedge_sim.Fiber
module Oracle = Wedge_check.Oracle
module Refvm = Wedge_check.Refvm
module Scenarios = Wedge_check.Scenarios
module Explore = Wedge_check.Explore
module W = Wedge_core.Wedge
module Engine = Wedge_core.Engine

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

(* An image's holders are its registration plus the address spaces that
   map through it.  A holder dropped behind the registry's back while a
   stamp still maps the image kills no frame, so only the holder count
   shows it, and the oracle must name the image. *)
let test_oracle_catches_dropped_image_holder () =
  let k = Kernel.create ~costs:Cost_model.free () in
  let app = W.create_app ~image_pages:8 k in
  W.boot app;
  let main = W.main_ctx app in
  let o = Oracle.create k in
  Oracle.set_app o app;
  let caught = ref None in
  Fiber.run (fun () ->
      let pool = W.Pool.freeze ~name:"w" main (W.sc_create ()) in
      Oracle.check o;
      let body _ _ =
        Vm.release_image pool.Engine.im_pages;
        (* Read inside the compartment, checked outside it. *)
        caught := Some (match Oracle.check o with () -> "" | exception Oracle.Violation m -> m);
        0
      in
      ignore
        (W.sthread_join main
           (W.sthread_create ~spawn:(W.Stamp pool) main (W.sc_create ()) body 0)));
  match !caught with
  | None -> Alcotest.fail "the stamped compartment did not run"
  | Some "" -> Alcotest.fail "oracle missed the dropped holder"
  | Some msg ->
      check Alcotest.bool "names the image" true (contains msg "frozen image w");
      check Alcotest.bool "names its holders" true (contains msg "1 holders but 2")

(* Every unwritten frame reads through the kernel's one zero page, so a
   write through the read view ([Physmem.get]) to an unwritten frame
   lands in all of them: the oracle must flag it. *)
(* A frozen image's shared table is never written: an entry rewritten in
   place, behind [find_private]'s back, would reach every stamp.  Nothing
   maps the image when the entry is written, so only the table check can
   see it, and it must name the vpn and what the entry was built as. *)
let test_oracle_catches_written_image_entry () =
  let k = Kernel.create ~costs:Cost_model.free () in
  let app = W.create_app ~image_pages:8 k in
  W.boot app;
  let o = Oracle.create k in
  Oracle.set_app o app;
  Fiber.run (fun () ->
      let pool = W.Pool.freeze ~name:"w" (W.main_ctx app) (W.sc_create ()) in
      Oracle.check o;
      let vpn = Wedge_kernel.Layout.data_base / ps in
      match Pagetable.base_find (Vm.image_table pool.Engine.im_pages) ~vpn with
      | None -> Alcotest.fail "the image lost its first page"
      | Some pte -> (
          pte.Pagetable.prot <- Prot.page_rw;
          match Oracle.check o with
          | () -> Alcotest.fail "oracle missed the written entry"
          | exception Oracle.Violation msg ->
              check Alcotest.bool "names the entry" true
                (contains msg (Printf.sprintf "page table maps vpn 0x%x" vpn));
              check Alcotest.bool "and what it was built as" true (contains msg "built as")))

(* A frozen page recorded copy-on-write must never be mapped writable: a
   stamped child that makes one writable in place (its own copy of the
   entry, still on the image's frame) would write onto the checkpoint
   every later stamp restores from.  The copy takes its own reference,
   so only the frozen-frame check sees it. *)
let test_oracle_catches_frozen_frame_mapped_writable () =
  let k = Kernel.create ~costs:Cost_model.free () in
  let app = W.create_app ~image_pages:8 k in
  W.boot app;
  let main = W.main_ctx app in
  let o = Oracle.create k in
  Oracle.set_app o app;
  let caught = ref None in
  Fiber.run (fun () ->
      let pool = W.Pool.freeze ~name:"w" main (W.sc_create ()) in
      let body (ctx : Engine.ctx) _ =
        Vm.set_page_prot ctx.Engine.proc.Wedge_kernel.Process.vm ~addr:Wedge_kernel.Layout.data_base
          ~prot:Prot.page_rw;
        (* Read inside the compartment, checked outside it. *)
        caught := Some (match Oracle.check o with () -> "" | exception Oracle.Violation m -> m);
        0
      in
      ignore
        (W.sthread_join main
           (W.sthread_create ~spawn:(W.Stamp pool) main (W.sc_create ()) body 0)));
  match !caught with
  | None -> Alcotest.fail "the stamped compartment did not run"
  | Some "" -> Alcotest.fail "oracle missed the writable frozen frame"
  | Some msg ->
      check Alcotest.bool "names the broken COW" true (contains msg "stamp broke the image's COW")

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
  let h = Oracle.hook o in
  for _ = 1 to 13 do
    h ()
  done;
  check Alcotest.int "13 switches / stride 7" 1 (Oracle.checks_run o);
  h ();
  check Alcotest.int "14 switches / stride 7" 2 (Oracle.checks_run o)

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
  let pte = Option.get (Pagetable.find (Vm.page_table v1) ~vpn:(0x10000 / ps)) in
  Vm.map_frame v2 ~addr:0x10000 ~frame:pte.Pagetable.frame ~prot:Prot.page_cow ~tag:None;
  Vm.set_page_prot v1 ~addr:0x10000 ~prot:Prot.page_cow;
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
    ("pop3", "559ab59a9891a93331df66a5b2a5012a");
    ("httpd", "9404dd29e816ab15acedb711fe899a66");
    ("sshd", "96d04d1499a2ed3bc857190ac6781159");
    ("httpd_mitm", "fdc59709b14c4d3630824930352b6a69");
    ("httpd_mitm_recycle", "3742f95755088fa9c425fda2e70d2fb9");
    ("httpd_storm", "d8258ae28fae1a2765277b23b6aab31e");
    ("pop3_storm", "02c7bca2ce129878413abe7ccdfde7b1");
    ("sshd_storm", "600674b1e4bddc01802fe66162624178");
    ("httpd_mitm_storm", "6094392b45f67cc6fbff68e4d1f1c442");
    ("httpd_pool_storm", "91f589e63eac0ed8b6358ee7535b6e6c");
    ("pop3_pool_storm", "1021d67df99883b3095389dc7072f15c");
    ("sshd_pool_storm", "1f1e41334f35606ee64951184daa5e02");
    ("httpd_mitm_pool_storm", "5f3de9befdc2f3e2b94912ecb0bda4ac");
    ("httpd_sharded", "2359f2c6842af3460ad645439e9901f7");
    ("pop3_sharded", "ba5a738b7f5409e872bf4b72b933d21f");
    ("sshd_sharded", "acb8008288376169b0856ac3ca23752c");
    ("httpd_mitm_sharded", "cb6e4951ef9b6b75dc36ae3c653d26f3");
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

(* ---------- Suite ---------- *)

let () =
  Alcotest.run "check"
    [
      ( "oracle",
        [
          Alcotest.test_case "clean on fresh kernel" `Quick test_oracle_clean_on_fresh_kernel;
          Alcotest.test_case "catches refcount drift" `Quick test_oracle_catches_refcount_drift;
          Alcotest.test_case "catches a dropped image holder" `Quick
            test_oracle_catches_dropped_image_holder;
          Alcotest.test_case "catches a dirty zero page" `Quick
            test_oracle_catches_dirty_zero_page;
          Alcotest.test_case "catches a written image entry" `Quick
            test_oracle_catches_written_image_entry;
          Alcotest.test_case "catches a frozen frame mapped writable" `Quick
            test_oracle_catches_frozen_frame_mapped_writable;
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
    ]
