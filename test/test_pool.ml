(* Snapshot pools: freeze a booted worker image once, stamp compartments
   out of it at flat cost.  Covers the freeze/stamp/discard lifecycle,
   the O(1) cost claim against fork-priced boot, COW preservation of the
   frozen frames, identity capture, fault injection on both
   pool sites (a fault mid-stamp must leave the image pristine and the
   refcounts clean — swept by the oracle), and the pool counters in the
   metrics registry. *)

module Kernel = Wedge_kernel.Kernel
module Fd_table = Wedge_kernel.Fd_table
module Layout = Wedge_kernel.Layout
module Pagetable = Wedge_kernel.Pagetable
module Physmem = Wedge_kernel.Physmem
module Process = Wedge_kernel.Process
module Prot = Wedge_kernel.Prot
module Vm = Wedge_kernel.Vm
module Chan = Wedge_net.Chan
module Clock = Wedge_sim.Clock
module Cost_model = Wedge_sim.Cost_model
module Stats = Wedge_sim.Stats
module Fiber = Wedge_sim.Fiber
module Fault_plan = Wedge_fault.Fault_plan
module Trace = Wedge_sim.Trace
module Metrics = Wedge_sim.Metrics
module W = Wedge_core.Wedge
module Engine = Wedge_core.Engine
module Pool = Wedge_core.Pool
module Oracle = Wedge_check.Oracle
module Tag = Wedge_mem.Tag

let check = Alcotest.check

let mk ?faults ?(costs = Cost_model.free) ?(image_pages = 40) () =
  let k = Kernel.create ~costs ?faults () in
  let app = W.create_app ~image_pages k in
  W.boot app;
  (k, app, W.main_ctx app)

let sweep k app =
  let o = Oracle.create k in
  Oracle.set_app o app;
  Oracle.check o

let noop _ _ = 0

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* A compartment stamped from [pool], [sc]'s grants on top. *)
let stamp ?(sc = W.sc_create ()) main pool fn arg =
  W.sthread_create ~spawn:(W.Stamp pool) main sc fn arg

(* ---------- lifecycle ---------- *)

let test_freeze_stamp_basic () =
  let k, app, main = mk () in
  Fiber.run (fun () ->
      let pool = W.Pool.freeze ~name:"w" main (W.sc_create ()) in
      check Alcotest.bool "live" true pool.Engine.im_live;
      check Alcotest.bool "pages captured" true (Vm.image_size pool.Engine.im_pages > 0);
      let h = stamp main pool (fun _ x -> x + 41) 1 in
      check Alcotest.int "stamped worker ran" 42 (W.sthread_join main h);
      check Alcotest.int "freeze counted" 1 app.Engine.pool_freezes;
      check Alcotest.int "stamp counted" 1 app.Engine.pool_stamps;
      check Alcotest.int "hit counted" 1 app.Engine.pool_hits);
  sweep k app

let test_stamp_flat_vs_fresh_scaling () =
  (* The O(1) claim, on the simulated clock with paper-shaped prices:
     fresh boot cost grows with the image, stamp cost does not. *)
  let measure pages =
    let k, _, main = mk ~costs:Cost_model.default ~image_pages:pages () in
    let clock = k.Kernel.clock in
    let fresh_ns = ref 0 and stamp_ns = ref 0 in
    Fiber.run ~clock (fun () ->
        let t0 = Clock.now clock in
        ignore (W.sthread_create main (W.sc_create ()) noop 0);
        fresh_ns := Clock.now clock - t0;
        let pool = W.Pool.freeze ~name:"w" main (W.sc_create ()) in
        let t1 = Clock.now clock in
        ignore (stamp main pool noop 0);
        stamp_ns := Clock.now clock - t1);
    (!fresh_ns, !stamp_ns)
  in
  let f1, s1 = measure 40 and f2, s2 = measure 400 in
  check Alcotest.bool "fresh scales with pages" true (f2 > f1);
  check Alcotest.int "stamp flat across 10x image" s1 s2;
  check Alcotest.bool "stamp beats fresh" true (s1 < f1 && s2 < f2)

(* A spawn's cost on both clocks, for images of 60, 300 and 2,000 pages:
   a stamp plus its reap and a stamped callgate invocation charge the
   same simulated ns whatever the image size, and so does their host
   allocation (minor words plus words allocated directly in the major
   heap, as the repository benchmark counts them) to within one word per
   page.  A fork-priced [Boot] keeps its per-page simulated price — the
   Figure 7 shape — while its host allocation stays flat too.  The
   structural witness: while a stamped compartment runs, every image frame
   keeps the refcount it had before the spawn, since the image, not the
   compartment, holds its pages' references. *)
let test_spawn_flat_on_both_clocks () =
  let host_words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. (major -. promoted)
  in
  let measure pages =
    let k, _, main = mk ~costs:Cost_model.default ~image_pages:pages () in
    let clock = k.Kernel.clock in
    let costs = ref None in
    Fiber.run ~clock (fun () ->
        let pool = W.Pool.freeze ~name:"w" main (W.sc_create ()) in
        let probe = ref ignore in
        let gate =
          W.sc_cgate_add ~spawn:(W.Stamp pool) main (W.sc_create ()) ~name:"g"
            ~entry:(fun _ ~trusted:_ ~arg:_ ->
              !probe ();
              0)
            ~cgsc:(W.sc_create ()) ~trusted:0
        in
        (* The second run is measured: the first grows the kernel's own
           tables (process table, counters) to their steady size. *)
        let cost f =
          f ();
          let w0 = host_words () and t0 = Clock.now clock in
          f ();
          (Clock.now clock - t0, host_words () -. w0)
        in
        costs :=
          Some
            ( cost (fun () -> ignore (stamp main pool noop 0)),
              cost (fun () -> ignore (W.cgate main gate ~perms:(W.sc_create ()) ~arg:0)),
              cost (fun () -> ignore (W.sthread_create main (W.sc_create ()) noop 0)) );
        let image = pool.Engine.im_pages in
        let refs () =
          let l = ref [] in
          Vm.image_iter image (fun ~vpn:_ ~frame ~prot:_ ~tag:_ ->
              l := Physmem.refcount k.Kernel.pm frame :: !l);
          !l
        in
        let before = refs () in
        (* Read inside the compartment, checked outside it: a failed
           check in a compartment body would only end the compartment. *)
        let seen = ref [] in
        let during what () = seen := (what, Vm.image_holders image, refs ()) :: !seen in
        ignore (stamp main pool (fun _ _ -> during "stamp" (); 0) 0);
        probe := during "stamped gate";
        ignore (W.cgate main gate ~perms:(W.sc_create ()) ~arg:0);
        check Alcotest.int "both compartments ran" 2 (List.length !seen);
        List.iter
          (fun (what, holders, during) ->
            check Alcotest.int
              (Printf.sprintf "%d pages, %s: the image gains one holder" pages what)
              2 holders;
            if during <> before then
              Alcotest.failf "%d pages, %s: an image frame's refcount moved" pages what)
          !seen;
        check Alcotest.(list int) "image refcounts after both" before (refs ()));
    Option.get !costs
  in
  let s1, g1, b1 = measure 60 and s2, g2, _ = measure 300 and s3, g3, b3 = measure 2_000 in
  List.iter
    (fun (what, (ns1, _), (ns2, _), (ns3, _)) ->
      check Alcotest.int (what ^ ": simulated ns flat, 60 -> 300 pages") ns1 ns2;
      check Alcotest.int (what ^ ": simulated ns flat, 60 -> 2,000 pages") ns1 ns3)
    [ ("stamp", s1, s2, s3); ("stamped gate", g1, g2, g3) ];
  check Alcotest.int "boot pays a pte_copy per page"
    (fst b1 + (1_940 * Cost_model.default.Cost_model.pte_copy))
    (fst b3);
  List.iter
    (fun (what, (_, words1), (_, words3)) ->
      if words3 -. words1 >= 1_940. then
        Alcotest.failf "%s: host words grow by %.0f from 60 to 2,000 pages (%.0f -> %.0f)" what
          (words3 -. words1) words1 words3)
    [ ("stamp", s1, s3); ("stamped gate", g1, g3); ("boot", b1, b3) ]

let test_stamp_cow_preserves_frozen_image () =
  let k, app, main = mk () in
  Fiber.run (fun () ->
      (* Warm the image so the frozen heap is part of the snapshot. *)
      let addr = ref 0 in
      let pool =
        W.Pool.freeze ~name:"w"
          ~warm:(fun ctx ->
            let p = W.malloc ctx 64 in
            W.write_u64 ctx p 0xBEEF;
            addr := p)
          main (W.sc_create ())
      in
      (* Two stamped workers write the same heap address: each must COW
         onto a private frame and see its own value. *)
      let h1 =
        stamp main pool
          (fun ctx _ ->
            W.write_u64 ctx !addr 111;
            W.read_u64 ctx !addr)
          0
      in
      check Alcotest.int "worker 1 private write" 111 (W.sthread_join main h1);
      let h2 =
        stamp main pool
          (fun ctx _ -> W.read_u64 ctx !addr)
          0
      in
      check Alcotest.int "worker 2 still sees frozen value" 0xBEEF
        (W.sthread_join main h2));
  (* The frozen frames survived both stamps un-broken: refcounts re-derive
     and no pw mapping points at a frozen COW frame. *)
  sweep k app

let test_discard_releases_image () =
  let k, app, main = mk () in
  Fiber.run (fun () ->
      let pool = W.Pool.freeze ~name:"w" main (W.sc_create ()) in
      ignore (W.sthread_join main (stamp main pool noop 0));
      W.Pool.discard main pool;
      check Alcotest.bool "dead after discard" false pool.Engine.im_live;
      check Alcotest.bool "stamp after discard refused" true
        (match stamp main pool noop 0 with
        | exception Invalid_argument _ -> true
        | _ -> false);
      (* Double discard is a no-op, and a fresh freeze can reuse the name. *)
      W.Pool.discard main pool;
      let pool2 = W.Pool.freeze ~name:"w" main (W.sc_create ()) in
      ignore (W.sthread_join main (stamp main pool2 noop 0)));
  sweep k app

let test_duplicate_freeze_name_refused () =
  let _, _, main = mk () in
  Fiber.run (fun () ->
      let _pool = W.Pool.freeze ~name:"w" main (W.sc_create ()) in
      check Alcotest.bool "duplicate name refused" true
        (match W.Pool.freeze ~name:"w" main (W.sc_create ()) with
        | exception Invalid_argument _ -> true
        | _ -> false))

(* ---------- identity ---------- *)

let test_stamp_identity () =
  let k, app, main = mk () in
  Fiber.run (fun () ->
      let sc = W.sc_create () in
      W.sc_set_uid sc 99;
      let pool = W.Pool.freeze ~name:"w" main sc in
      (* Identity captured at freeze rides into every stamp. *)
      let h = stamp main pool (fun ctx _ -> W.getuid ctx) 0 in
      check Alcotest.int "stamped uid from pool" 99 (W.sthread_join main h);
      (* A stamp-time extra can override identity per invocation. *)
      let extra = W.sc_create () in
      W.sc_set_uid extra 33;
      let h2 = stamp ~sc:extra main pool (fun ctx _ -> W.getuid ctx) 0 in
      check Alcotest.int "extra overrides uid" 33 (W.sthread_join main h2));
  sweep k app

(* ---------- stamped twins of fork-priced compartments ---------- *)

(* Everything a compartment starts with, read from inside it: its page
   table, its descriptor table and its identity. *)
type capture = {
  pages : (int * int * Prot.page * int option) list;
  fds : (int * Fd_table.perm * Fd_table.endpoint) list;
  identity : int * string * string;
}

let capture ctx =
  let p = W.proc ctx in
  let fds = p.Process.fds in
  {
    pages =
      Pagetable.fold
        (fun vpn (pte : Pagetable.pte) acc ->
          (vpn, pte.Pagetable.frame, pte.Pagetable.prot, pte.Pagetable.tag) :: acc)
        (Vm.page_table p.Process.vm) []
      |> List.sort compare;
    fds =
      List.map
        (fun fd ->
          let e = Option.get (Fd_table.find fds fd) in
          (fd, e.Fd_table.perm, e.Fd_table.target))
        (Fd_table.fds fds);
    identity = (p.Process.uid, p.Process.root, p.Process.sid);
  }

(* Endpoints are shared open-file descriptions: the same one, not an
   equal one. *)
let same_target (a : Fd_table.endpoint) b = a == b

let check_twins what (fork : capture) (stamped : capture) =
  check Alcotest.bool (what ^ ": page tables equal") true (fork.pages = stamped.pages);
  check Alcotest.bool (what ^ ": pages mapped") true (List.length fork.pages > 60);
  check Alcotest.int (what ^ ": descriptor count") (List.length fork.fds)
    (List.length stamped.fds);
  List.iter2
    (fun (fd, perm, target) (fd', perm', target') ->
      check Alcotest.int (what ^ ": descriptor number") fd fd';
      check Alcotest.bool (what ^ ": descriptor perm") true (perm = perm');
      check Alcotest.bool (what ^ ": descriptor target") true (same_target target target'))
    fork.fds stamped.fds;
  check
    Alcotest.(triple int string string)
    (what ^ ": identity") fork.identity stamped.identity

(* A 60-page image, a worker identity, a tag the worker may write, one
   the gate may read, and a master-held descriptor. *)
let twin_world () =
  let k, app, main = mk ~image_pages:60 () in
  let identity = W.sc_create () in
  W.sc_set_uid identity 99;
  W.sc_set_root identity "/var/empty";
  let work = W.tag_new ~name:"twin.work" ~pages:2 main in
  let secret = W.tag_new ~name:"twin.secret" ~pages:1 main in
  let _peer, ours = Chan.pair ~costs:Cost_model.free () in
  let fd = W.add_endpoint main (Chan.to_endpoint ours) Fd_table.perm_rw in
  (k, app, main, identity, work, secret, fd)

let test_stamped_sthread_twin () =
  let k, app, main, identity, work, _, fd = twin_world () in
  Fiber.run (fun () ->
      let pool = W.Pool.freeze ~name:"twin" main identity in
      let sc = W.sc_create () in
      W.sc_set_uid sc 99;
      W.sc_set_root sc "/var/empty";
      W.sc_mem_add sc work Prot.RW;
      W.sc_fd_add sc fd Fd_table.perm_r;
      let seen = ref None in
      let body ctx _ =
        seen := Some (capture ctx);
        0
      in
      ignore (W.sthread_join main (W.sthread_create main sc body 0));
      let fork = Option.get !seen in
      ignore (W.sthread_join main (stamp ~sc main pool body 0));
      check_twins "sthread" fork (Option.get !seen));
  sweep k app

let test_stamped_gate_twin () =
  let k, app, main, identity, work, secret, fd = twin_world () in
  Fiber.run (fun () ->
      let pool = W.Pool.freeze ~name:"twin" main identity in
      let seen = ref None in
      let entry gctx ~trusted:_ ~arg:_ =
        seen := Some (capture gctx);
        0
      in
      (* Tag grants and a creator-held descriptor. *)
      let cgsc = W.sc_create () in
      W.sc_mem_add cgsc secret Prot.R;
      W.sc_mem_add cgsc work Prot.RW;
      W.sc_fd_add cgsc fd Fd_table.perm_w;
      let worker_sc = W.sc_create () in
      W.sc_mem_add worker_sc work Prot.RW;
      let forked = W.sc_cgate_add main worker_sc ~name:"twin.fork" ~entry ~cgsc ~trusted:0 in
      let stamped =
        W.sc_cgate_add ~spawn:(W.Stamp pool) main worker_sc ~name:"twin.stamp" ~entry ~cgsc
          ~trusted:0
      in
      let call gate =
        seen := None;
        ignore
          (W.sthread_join main
             (W.sthread_create main worker_sc
                (fun ctx _ ->
                  (* the caller's extras: its own work tag, read-only *)
                  let perms = W.sc_create () in
                  W.sc_mem_add perms work Prot.R;
                  W.cgate ctx gate ~perms ~arg:0)
                0));
        Option.get !seen
      in
      let fork = call forked in
      let stamp = call stamped in
      check_twins "gate" fork stamp;
      check Alcotest.int "one stamped invocation" 1
        (Stats.get k.Kernel.stats "cgate.stamped"));
  sweep k app

let test_stamped_gate_keeps_no_residue () =
  (* The recycled-residue test's buggy gate (test_engine_extra): it
     echoes its private heap scratch before overwriting it with the
     caller's argument.  Recycled, caller B reads caller A's secret;
     stamped, every invocation starts from the image, warmed or not. *)
  let run ~warm =
    let k, app, main = mk () in
    let leaked = ref "" in
    Fiber.run (fun () ->
        let argt = W.tag_new ~name:"args" main in
        let arg_block = W.smalloc main 64 argt in
        let warm = if warm then Some (fun ctx -> W.free ctx (W.malloc ctx 64)) else None in
        let pool = W.Pool.freeze ~name:"gate" ?warm main (W.sc_create ()) in
        let sc = W.sc_create () in
        W.sc_mem_add sc argt Prot.RW;
        let gate =
          W.sc_cgate_add ~spawn:(W.Stamp pool) main sc ~name:"buggy-s"
            ~entry:(fun g ~trusted:_ ~arg ->
              let scratch =
                if Probe.readable g ~addr:(Layout.heap_base + 40) ~len:1 then Layout.heap_base + 40
                else W.malloc g 32
              in
              let v = W.read_string g arg 16 in
              let stale = W.read_string g scratch 16 in
              W.write_string g scratch v;
              W.write_string g arg stale;
              1)
            ~cgsc:(W.sc_create ()) ~trusted:0
        in
        let perms () =
          let p = W.sc_create () in
          W.sc_mem_add p argt Prot.RW;
          p
        in
        let principal text =
          W.sthread_join main
            (W.sthread_create main sc
               (fun ctx _ ->
                 W.write_string ctx arg_block text;
                 ignore (W.cgate ctx gate ~perms:(perms ()) ~arg:arg_block);
                 leaked := W.read_string ctx arg_block 16;
                 0)
               0)
        in
        ignore (principal "SECRET-OF-ALICE!");
        ignore (principal "bbbbbbbbbbbbbbbb"));
    sweep k app;
    !leaked
  in
  check Alcotest.bool "stamped gate has no residue" true (run ~warm:false <> "SECRET-OF-ALICE!");
  check Alcotest.bool "nor from a warmed image" true (run ~warm:true <> "SECRET-OF-ALICE!")

let test_stamped_gate_refuses_foreign_image () =
  let _, _, main = mk () in
  let _, _, other = mk () in
  Fiber.run (fun () ->
      let pool = W.Pool.freeze ~name:"elsewhere" other (W.sc_create ()) in
      check Alcotest.bool "image of another app refused" true
        (match
           W.sc_cgate_add ~spawn:(W.Stamp pool) main (W.sc_create ()) ~name:"g"
             ~entry:(fun _ ~trusted:_ ~arg:_ -> 0)
             ~cgsc:(W.sc_create ()) ~trusted:0
         with
        | exception Invalid_argument _ -> true
        | _ -> false))

(* ---------- isolation through the shared image table ---------- *)

(* Every compartment stamped from an image maps it through one shared
   page table.  Whatever one of them does to a page it sees through that
   table — a write, a protection change, a retag, an unmap, a fork's COW
   downgrade — must stay in its own address space: its siblings and
   every later stamp still map and read the image as frozen.  The oracle
   runs at every system call, and checks the table against the image's
   records. *)

(* What a compartment maps and reads: every pte, with a digest of the
   bytes behind it, taken from ground truth (no TLB, no clock). *)
let view k ctx =
  let pm = k.Kernel.pm in
  Pagetable.fold
    (fun vpn (pte : Pagetable.pte) acc ->
      ( vpn,
        pte.Pagetable.frame,
        pte.Pagetable.prot,
        pte.Pagetable.tag,
        Digest.bytes (Physmem.get pm pte.Pagetable.frame) )
      :: acc)
    (Vm.page_table (W.proc ctx).Process.vm) []
  |> List.sort compare

(* A 60-page world whose oracle runs at every system call while [f]
   does, and once more after. *)
let with_oracle f =
  let k, app, main = mk ~image_pages:60 () in
  let oracle = Oracle.create k in
  Oracle.set_app oracle app;
  Oracle.install_syscall_hook oracle;
  Fun.protect
    ~finally:(fun () -> Oracle.remove_syscall_hook oracle)
    (fun () ->
      Fiber.run (fun () -> f k main oracle);
      Oracle.check oracle)

(* An image warmed with one heap word, 0xBEEF, and carrying a two-page
   tag granted read-write. *)
let freeze_shared main =
  let shared = W.tag_new ~name:"shared" ~pages:2 main in
  let sc = W.sc_create () in
  W.sc_mem_add sc shared Prot.RW;
  let heap = ref 0 in
  let warm ctx =
    heap := W.malloc ctx 64;
    W.write_u64 ctx !heap 0xBEEF
  in
  let pool = W.Pool.freeze ~name:"shared" ~warm main sc in
  (pool, shared, !heap)

(* Run [body] in a compartment stamped from [pool]; it must finish. *)
let in_stamp main pool body =
  check Alcotest.int "stamped compartment finished" 0
    (W.sthread_join main (stamp main pool (fun ctx _ -> body ctx; 0) 0))

let stamped_view k main pool =
  let seen = ref [] in
  in_stamp main pool (fun ctx -> seen := view k ctx);
  !seen

let test_siblings_isolated_through_shared_table () =
  with_oracle (fun k main oracle ->
      let pool, shared, heap = freeze_shared main in
      let image = stamped_view k main pool in
      let data = Layout.data_base and ps = Physmem.page_size in
      in_stamp main pool (fun sibling ->
          in_stamp main pool (fun child ->
              let vm = (W.proc child).Process.vm in
              let unchanged what =
                check Alcotest.bool (what ^ ": sibling maps and reads as before") true
                  (view k sibling = image);
                check Alcotest.bool (what ^ ": the image stamps as before") true
                  (stamped_view k main pool = image);
                Oracle.check oracle
              in
              W.write_u64 child heap 111;
              W.write_u64 child data 7;
              check Alcotest.int "child reads its write" 111 (W.read_u64 child heap);
              check Alcotest.int "sibling reads the image" 0xBEEF (W.read_u64 sibling heap);
              unchanged "write";
              Vm.set_page_prot vm ~addr:(data + ps) ~prot:Prot.page_none;
              check Alcotest.bool "child lost the page" false
                (Probe.readable child ~addr:(data + ps) ~len:1);
              check Alcotest.bool "sibling keeps it" true
                (Probe.readable sibling ~addr:(data + ps) ~len:1);
              unchanged "set_page_prot";
              Vm.set_page_tag vm ~addr:(data + (2 * ps)) ~tag:(Some 4242);
              unchanged "retag";
              (* The unmap a tag deletion performs in each address space. *)
              Vm.unmap_range vm ~addr:shared.Tag.base ~pages:shared.Tag.pages;
              check Alcotest.bool "child lost the tag" false
                (Probe.readable child ~addr:shared.Tag.base ~len:1);
              unchanged "unmap";
              (* The deletion itself reaches pages seen only through the
                 table, and nothing else. *)
              W.tag_delete sibling shared;
              check Alcotest.bool "tag_delete: sibling keeps every other page" true
                (view k sibling
                = List.filter (fun (_, _, _, tag, _) -> tag <> Some shared.Tag.id) image);
              Oracle.check oracle)))

let test_discard_under_a_live_stamp () =
  with_oracle (fun k main oracle ->
      let before = Physmem.frames_in_use k.Kernel.pm in
      let heap = ref 0 in
      let warm ctx =
        heap := W.malloc ctx 64;
        W.write_u64 ctx !heap 0xBEEF
      in
      let pool = W.Pool.freeze ~name:"w" ~warm main (W.sc_create ()) in
      in_stamp main pool (fun child ->
          W.Pool.discard main pool;
          Oracle.check oracle;
          check Alcotest.int "child still reads the image" 0xBEEF (W.read_u64 child !heap);
          W.write_u64 child !heap 5;
          check Alcotest.int "and writes its own page" 5 (W.read_u64 child !heap));
      check Alcotest.int "the image's frames die with its last user" before
        (Physmem.frames_in_use k.Kernel.pm))

let test_fork_of_a_stamp () =
  with_oracle (fun k main _ ->
      let pool, shared, heap = freeze_shared main in
      let image = stamped_view k main pool in
      let word = shared.Tag.base + 2048 in
      in_stamp main pool (fun child ->
          let tagged = W.read_u64 child word in
          (* fork downgrades the stamp's writable pages — the tag's, seen
             through the table — to copy-on-write on both sides. *)
          let h =
            W.fork child (fun forked ->
                W.write_u64 forked heap 5;
                W.write_u64 forked word (tagged + 1);
                W.read_u64 forked heap)
          in
          check Alcotest.int "fork reads its write" 5 (W.sthread_join child h);
          check Alcotest.int "stamp keeps the image's word" 0xBEEF (W.read_u64 child heap);
          check Alcotest.int "fork's tag write stayed in the fork" tagged (W.read_u64 child word);
          check Alcotest.bool "the image stamps as before" true (stamped_view k main pool = image)))

(* A stamped gate takes only address space from its image, so an image
   that carries a tagged page is refused when the gate is added: a tag a
   grant would have to justify must not ride in through the image.  An
   untagged image of the same app is accepted. *)
let test_stamped_gate_refuses_tagged_image () =
  let _, _, main = mk () in
  Fiber.run (fun () ->
      let add pool =
        W.sc_cgate_add ~spawn:(W.Stamp pool) main (W.sc_create ()) ~name:"g"
          ~entry:(fun _ ~trusted:_ ~arg:_ -> 0)
          ~cgsc:(W.sc_create ()) ~trusted:0
      in
      let tagged, _, _ = freeze_shared main in
      check Alcotest.bool "image with a tagged page refused" true
        (match add tagged with
        | exception W.Privilege_violation msg -> contains msg "tagged pages"
        | _ -> false);
      ignore (add (W.Pool.freeze ~name:"plain" main (W.sc_create ()))))

(* ---------- fault injection on the pool sites ---------- *)

let test_fault_during_freeze_leaves_no_image () =
  let plan = Fault_plan.create ~seed:7 () in
  Fault_plan.rule plan ~site:"pool.freeze" ~prob:1.0 [ Fault_plan.Crash ];
  Fault_plan.disarm plan;
  let k, app, main = mk ~faults:plan () in
  Fiber.run (fun () ->
      Fault_plan.arm plan;
      check Alcotest.bool "freeze crashed" true
        (match W.Pool.freeze ~name:"w" main (W.sc_create ()) with
        | exception _ -> true
        | _ -> false);
      Fault_plan.disarm plan;
      check Alcotest.int "no image registered" 0 (List.length app.Engine.frozen_images);
      (* The name is free again and a clean retry works. *)
      let pool = W.Pool.freeze ~name:"w" main (W.sc_create ()) in
      ignore (W.sthread_join main (stamp main pool noop 0)));
  sweep k app

let test_fault_during_stamp_image_pristine () =
  let plan = Fault_plan.create ~seed:8 () in
  Fault_plan.rule plan ~site:"pool.stamp" ~prob:1.0 [ Fault_plan.Crash ];
  Fault_plan.disarm plan;
  let k, app, main = mk ~faults:plan () in
  Fiber.run (fun () ->
      let pool = W.Pool.freeze ~name:"w" main (W.sc_create ()) in
      Fault_plan.arm plan;
      check Alcotest.bool "stamp crashed" true
        (match stamp main pool noop 0 with exception _ -> true | _ -> false);
      Fault_plan.disarm plan;
      (* The frozen image survived the failed stamp pristine: still live,
         still registered, and a clean stamp serves. *)
      check Alcotest.bool "pool still live" true pool.Engine.im_live;
      check Alcotest.int "image still registered" 1 (List.length app.Engine.frozen_images);
      check Alcotest.bool "faulted attempt counted, no hit" true
        (app.Engine.pool_stamps >= 1 && app.Engine.pool_hits = 0);
      ignore (W.sthread_join main (stamp main pool noop 0)));
  (* Refcounts and COW re-derive clean after the mid-stamp crash. *)
  sweep k app

(* ---------- observability ---------- *)

let test_pool_metrics_and_trace () =
  let k, app, main = mk () in
  Trace.arm k.Kernel.trace;
  Fiber.run (fun () ->
      let pool = W.Pool.freeze ~name:"w" main (W.sc_create ()) in
      ignore (W.sthread_join main (stamp main pool noop 0));
      W.Pool.discard main pool);
  check Alcotest.bool "freeze stat" true (Stats.get k.Kernel.stats "pool.freeze" >= 1);
  check Alcotest.bool "stamp stat" true (Stats.get k.Kernel.stats "pool.stamp" >= 1);
  check Alcotest.bool "discard stat" true (Stats.get k.Kernel.stats "pool.discard" >= 1);
  let m = Metrics.create () in
  W.register_metrics m app;
  let json = Metrics.to_json m in
  List.iter
    (fun needle ->
      check Alcotest.bool (needle ^ " in metrics") true (contains json needle))
    [ "pool.freezes"; "pool.stamps"; "pool.hits"; "pool.frozen_frames" ];
  let trace = Trace.to_chrome_json k.Kernel.trace in
  List.iter
    (fun needle ->
      check Alcotest.bool (needle ^ " in trace") true (contains trace needle))
    [ "pool.freeze"; "pool.stamp"; "pool.discard" ];
  sweep k app

let () =
  Alcotest.run "pool"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "freeze + stamp" `Quick test_freeze_stamp_basic;
          Alcotest.test_case "flat vs fresh scaling" `Quick test_stamp_flat_vs_fresh_scaling;
          Alcotest.test_case "spawn flat on both clocks" `Quick test_spawn_flat_on_both_clocks;
          Alcotest.test_case "COW preserves image" `Quick test_stamp_cow_preserves_frozen_image;
          Alcotest.test_case "discard" `Quick test_discard_releases_image;
          Alcotest.test_case "duplicate name" `Quick test_duplicate_freeze_name_refused;
        ] );
      ( "grants",
        [ Alcotest.test_case "identity + limits" `Quick test_stamp_identity ] );
      ( "twins",
        [
          Alcotest.test_case "stamped sthread = fork-priced" `Quick test_stamped_sthread_twin;
          Alcotest.test_case "stamped gate = fork-priced" `Quick test_stamped_gate_twin;
          Alcotest.test_case "stamped gate keeps no residue" `Quick
            test_stamped_gate_keeps_no_residue;
          Alcotest.test_case "foreign image refused" `Quick
            test_stamped_gate_refuses_foreign_image;
          Alcotest.test_case "stamped gate refuses a tagged image" `Quick
            test_stamped_gate_refuses_tagged_image;
        ] );
      ( "shared table",
        [
          Alcotest.test_case "siblings isolated" `Quick test_siblings_isolated_through_shared_table;
          Alcotest.test_case "discard under a live stamp" `Quick test_discard_under_a_live_stamp;
          Alcotest.test_case "fork of a stamp" `Quick test_fork_of_a_stamp;
        ] );
      ( "faults",
        [
          Alcotest.test_case "freeze crash" `Quick test_fault_during_freeze_leaves_no_image;
          Alcotest.test_case "stamp crash" `Quick test_fault_during_stamp_image_pristine;
        ] );
      ( "observability",
        [ Alcotest.test_case "metrics + trace" `Quick test_pool_metrics_and_trace ] );
    ]
