(* Tests for the sharded multikernel fabric: stable connection routing,
   the cross-shard TLB-shootdown protocol behind global tag deletion,
   the cluster-wide oracle sweep, and digest-stable schedule exploration
   of the sharded server scenarios. *)

module Physmem = Wedge_kernel.Physmem
module Pagetable = Wedge_kernel.Pagetable
module Vm = Wedge_kernel.Vm
module Prot = Wedge_kernel.Prot
module Kernel = Wedge_kernel.Kernel
module Process = Wedge_kernel.Process
module Clock = Wedge_sim.Clock
module Cost_model = Wedge_sim.Cost_model
module Stats = Wedge_sim.Stats
module Fiber = Wedge_sim.Fiber
module Shard = Wedge_net.Shard
module W = Wedge_core.Wedge
module Oracle = Wedge_check.Oracle
module Explore = Wedge_check.Explore

let check = Alcotest.check

(* [n] bare booted worlds on the default cost model, one fabric. *)
let make ~n =
  Shard.create
    (Array.init n (fun sid ->
         let kernel = Kernel.create ~shard:sid () in
         let app = W.create_app kernel in
         W.boot app;
         (kernel, app)))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Run [f fab] as the main fiber of an [n]-shard world, with the fabric
   pump as the scheduler's idle handler (as every sharded scenario and
   bench does). *)
let with_fabric n f =
  let fab = make ~n in
  Fiber.run ~on_switch:(Shard.hook fab) ~on_idle:(Shard.idle fab) (fun () ->
      Shard.start fab;
      f fab;
      Shard.stop fab);
  fab

let xshoot_stat fab sid =
  Stats.get (Shard.shard fab sid).Shard.kernel.Kernel.stats "tlb.cross_shard_shootdown"

(* ---------- connection routing ---------- *)

(* FNV-1a is part of the wire contract: a key's shard assignment must
   never move across runs, hosts or versions, or a rolling restart
   would re-home every connection.  Pin exact values. *)
let test_shard_hash_pinned () =
  let fabs = List.map (fun n -> (n, make ~n)) [ 2; 3; 4; 5; 7 ] in
  List.iter
    (fun (key, want) ->
      List.iter
        (fun (n, fab) ->
          check Alcotest.int (Printf.sprintf "%s over %d shards" key n) (want mod n)
            (Shard.route fab ~key))
        fabs)
    [
      ("alice", 2267157479);
      ("bob", 2261164244);
      ("carol", 1728614162);
      ("dave", 3496789471);
    ];
  let mod_pattern n =
    List.init 8 (fun i -> Shard.route (List.assoc n fabs) ~key:(Printf.sprintf "conn-%d" i))
  in
  check (Alcotest.list Alcotest.int) "conn-0..7 over 2 shards"
    [ 0; 1; 0; 1; 0; 1; 0; 1 ] (mod_pattern 2);
  check (Alcotest.list Alcotest.int) "conn-0..7 over 4 shards"
    [ 2; 1; 0; 3; 2; 1; 0; 3 ] (mod_pattern 4)

(* FNV-1a (32-bit), the hash the wire contract names. *)
let fnv1a key =
  let h = ref 0x811c9dc5 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xffffffff) key;
  !h

let test_route_deterministic_and_covering () =
  let fab = make ~n:4 in
  let seen = Array.make 4 0 in
  for i = 0 to 99 do
    let key = Printf.sprintf "conn-%d" i in
    let sid = Shard.route fab ~key in
    check Alcotest.int ("route is hash mod n for " ^ key) (fnv1a key mod 4) sid;
    check Alcotest.int ("route is stable for " ^ key) sid (Shard.route fab ~key);
    seen.(sid) <- seen.(sid) + 1
  done;
  Array.iteri
    (fun sid n ->
      check Alcotest.bool (Printf.sprintf "shard %d gets traffic" sid) true (n > 0))
    seen

(* ---------- cross-shard revocation ---------- *)

(* The tentpole safety property: deleting a global tag from ANY shard
   must revoke every remote replica before the delete returns.  The
   stale-TLB window is a recycled callgate on shard 1 (its pooled
   sthread keeps mappings between invocations); after a delete issued
   on shard 0, re-invocation must fault (join -1), never read stale
   frames. *)
let test_cross_shard_revocation () =
  let fab =
    with_fabric 2 (fun fab ->
        let s1 = Shard.shard fab 1 in
        let main1 = W.main_ctx s1.Shard.app in
        let g = Shard.gtag_new ~name:"secret" ~pages:1 fab in
        let r1 = Shard.replica g ~sid:1 in
        let addr = W.smalloc main1 16 r1 in
        W.write_string main1 addr "per-conn secret!";
        let sc = W.sc_create () in
        let cgsc = W.sc_create () in
        W.sc_mem_add cgsc r1 Prot.R;
        let gate =
          W.sc_cgate_add ~spawn:W.Recycle main1 sc ~name:"peek"
            ~entry:(fun gctx ~trusted:_ ~arg:_ -> W.read_u8 gctx addr)
            ~cgsc ~trusted:0
        in
        let invoke () =
          W.sthread_join main1
            (W.sthread_create main1 sc
               (fun ctx _ -> W.cgate ctx gate ~perms:(W.sc_create ()) ~arg:0)
               0)
        in
        check Alcotest.int "live replica readable through the gate"
          (Char.code 'p') (invoke ());
        check Alcotest.bool "gtag live before delete" true (Shard.gtag_live g);
        Shard.gtag_delete fab ~sid:0 g;
        check Alcotest.bool "gtag dead after delete" false (Shard.gtag_live g);
        check Alcotest.int "stale replica faults after global revocation" (-1)
          (invoke ()))
  in
  check Alcotest.int "one cross-shard shootdown" 1
    (Shard.cross_shard_shootdowns fab);
  check Alcotest.int "charged to the remote shard" 1 (xshoot_stat fab 1);
  check Alcotest.int "deleting shard pays no cross-shard stat" 0 (xshoot_stat fab 0);
  check (Alcotest.option Alcotest.string) "fabric self_check clean" None
    (Shard.self_check fab)

(* Every delete broadcasts to the n-1 peers, whichever shard issues it. *)
let test_shootdown_fan_out_n4 () =
  let fab =
    with_fabric 4 (fun fab ->
        let g1 = Shard.gtag_new ~name:"g1" ~pages:1 fab in
        Shard.gtag_delete fab ~sid:0 g1;
        let g2 = Shard.gtag_new ~name:"g2" ~pages:1 fab in
        Shard.gtag_delete fab ~sid:2 g2)
  in
  check Alcotest.int "two deletes x three peers" 6
    (Shard.cross_shard_shootdowns fab);
  (* Delete from 0 hits 1,2,3; delete from 2 hits 0,1,3. *)
  List.iter
    (fun (sid, want) ->
      check Alcotest.int (Printf.sprintf "shard %d shootdowns" sid) want
        (xshoot_stat fab sid))
    [ (0, 1); (1, 2); (2, 1); (3, 2) ];
  check (Alcotest.option Alcotest.string) "fabric self_check clean" None
    (Shard.self_check fab);
  (* Under churn too: 4 fibers per shard create, grant and delete local
     tags around sthreads while 8 gtags rotate out of shards i mod 4.
     Only the gtag deletes broadcast. *)
  let churned =
    with_fabric 4 (fun fab ->
        let busy = ref 0 in
        Array.iter
          (fun s ->
            let main = W.main_ctx s.Shard.app in
            for _ = 1 to 4 do
              incr busy;
              Fiber.spawn (fun () ->
                  for _ = 1 to 50 do
                    let tag = W.tag_new ~name:"local" ~pages:1 main and sc = W.sc_create () in
                    W.sc_mem_add sc tag Prot.R;
                    ignore (W.sthread_join main (W.sthread_create main sc (fun _ _ -> 0) 0));
                    Fiber.yield ();
                    W.tag_delete main tag
                  done;
                  decr busy)
            done)
          (Shard.shards fab);
        for i = 0 to 7 do
          let g = Shard.gtag_new ~name:(Printf.sprintf "sess-%d" i) ~pages:1 fab in
          Fiber.yield ();
          Shard.gtag_delete fab ~sid:(i mod 4) g
        done;
        Fiber.wait_until ~what:"churn done" (fun () -> !busy = 0))
  in
  check Alcotest.int "eight rotations x three peers under churn" 24
    (Shard.cross_shard_shootdowns churned);
  check (Alcotest.option Alcotest.string) "fabric self_check clean under churn" None
    (Shard.self_check churned)

(* ---------- cluster-wide oracle sweep ---------- *)

let test_global_sweep_labels_shard () =
  let mk shard =
    let k = Kernel.create ~costs:Cost_model.free ~shard () in
    let p =
      Kernel.new_process k ~kind:Process.Main ~uid:0 ~root:"/" ~sid:"sys" ()
    in
    Vm.map_fresh p.Process.vm ~addr:0x10000 ~pages:1 ~prot:Prot.page_rw ~tag:None;
    (k, p, Oracle.create k)
  in
  let _, _, o0 = mk 0 in
  let k1, p1, o1 = mk 1 in
  Oracle.global_sweep [ o0; o1 ];
  (* Leak a reference behind shard 1's kernel: the sweep must fail and
     say which shard's ground truth diverged. *)
  (match Pagetable.find (Vm.page_table p1.Process.vm) ~vpn:(0x10000 / Physmem.page_size) with
  | Some pte -> Physmem.incref k1.Kernel.pm pte.Pagetable.frame
  | None -> Alcotest.fail "page vanished");
  match Oracle.global_sweep [ o0; o1 ] with
  | () -> Alcotest.fail "global sweep missed the leaked reference"
  | exception Oracle.Violation msg ->
      check Alcotest.bool "violation names shard 1" true (contains msg "shard 1");
      check Alcotest.bool "violation names refcounts" true (contains msg "refcount")

(* ---------- schedule exploration ---------- *)

(* The sharded httpd scenario under 25 independently seeded schedules:
   a clean sweep, and the digest — a hash over every schedule's summary
   line — must reproduce exactly, or scenario summaries picked up
   schedule-dependent noise (the property replay depends on). *)
let test_explore_httpd_sharded_digest_stable () =
  let run () =
    match Explore.explore ~schedules:25 ~scenario:"httpd_sharded" ~seed:5 () with
    | Explore.Passed { p_schedules; p_digest } ->
        check Alcotest.int "all schedules ran" 25 p_schedules;
        p_digest
    | Explore.Failed { x_exn; _ } ->
        Alcotest.fail ("httpd_sharded failed under exploration: " ^ x_exn)
  in
  let d1 = run () in
  let d2 = run () in
  check Alcotest.string "digest reproduces across explorations" d1 d2

let () =
  Alcotest.run "shard"
    [
      ( "routing",
        [
          Alcotest.test_case "hash pinned" `Quick test_shard_hash_pinned;
          Alcotest.test_case "route deterministic + covering" `Quick
            test_route_deterministic_and_covering;
        ] );
      ( "revocation",
        [
          Alcotest.test_case "cross-shard shootdown" `Quick test_cross_shard_revocation;
          Alcotest.test_case "fan-out at n=4" `Quick test_shootdown_fan_out_n4;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "global sweep labels the shard" `Quick
            test_global_sweep_labels_shard;
        ] );
      ( "explore",
        [
          Alcotest.test_case "httpd_sharded 25-schedule digest" `Slow
            test_explore_httpd_sharded_digest_stable;
        ] );
    ]
