(* Tests for the core Wedge primitives: sthread default-deny semantics, the
   pristine snapshot, privilege-subset enforcement, callgates (trusted
   arguments, permission validation, recycled reuse), fork as the leaky
   baseline, smalloc_on/off and boundary variables. *)

module Kernel = Wedge_kernel.Kernel
module Physmem = Wedge_kernel.Physmem
module Vm = Wedge_kernel.Vm
module Prot = Wedge_kernel.Prot
module Process = Wedge_kernel.Process
module Fd_table = Wedge_kernel.Fd_table
module Selinux = Wedge_kernel.Selinux
module Vfs = Wedge_kernel.Vfs
module Clock = Wedge_sim.Clock
module Cost_model = Wedge_sim.Cost_model
module Stats = Wedge_sim.Stats
module Tag = Wedge_mem.Tag
module Fiber = Wedge_sim.Fiber
module W = Wedge_core.Wedge
module Engine = Wedge_core.Engine

let check = Alcotest.check

let mk_app ?(costs = Cost_model.free) ?image_pages () =
  let k = Kernel.create ~costs () in
  let app = W.create_app ?image_pages k in
  (k, app, W.main_ctx app)

(* A faulted sthread joins as -1; no body in these tests returns it. *)
let faulted main h = W.sthread_join main h = -1

(* ---------- default deny ---------- *)

let test_sthread_cannot_read_untagged_parent_memory () =
  let _, app, main = mk_app () in
  let secret_tag = W.tag_new ~name:"secret" main in
  let addr = W.smalloc main 32 secret_tag in
  W.write_string main addr "private key material 0123456789";
  W.boot app;
  (* Empty policy: the child must not even be able to name the memory. *)
  let h = W.sthread_create main (W.sc_create ()) (fun ctx _ -> W.read_u8 ctx addr) 0 in
  check Alcotest.bool "child faulted" true (faulted main h);
  check Alcotest.int "join reports failure" (-1) (W.sthread_join main h)

let test_sthread_granted_tag_reads () =
  let _, app, main = mk_app () in
  let tag = W.tag_new ~name:"shared" main in
  let addr = W.smalloc main 16 tag in
  W.write_string main addr "hello sthread";
  W.boot app;
  let sc = W.sc_create () in
  W.sc_mem_add sc tag Prot.R;
  let h =
    W.sthread_create main sc
      (fun ctx _ -> if W.read_string ctx addr 13 = "hello sthread" then 7 else 0)
      0
  in
  check Alcotest.int "read through grant" 7 (W.sthread_join main h)

let test_sthread_read_grant_rejects_write () =
  let _, app, main = mk_app () in
  let tag = W.tag_new main in
  let addr = W.smalloc main 16 tag in
  W.boot app;
  let sc = W.sc_create () in
  W.sc_mem_add sc tag Prot.R;
  let h = W.sthread_create main sc (fun ctx _ -> W.write_u8 ctx addr 1; 0) 0 in
  check Alcotest.bool "write faulted" true (faulted main h)

let test_sthread_rw_grant_shares_writes () =
  let _, app, main = mk_app () in
  let tag = W.tag_new main in
  let addr = W.smalloc main 16 tag in
  W.boot app;
  let sc = W.sc_create () in
  W.sc_mem_add sc tag Prot.RW;
  let h = W.sthread_create main sc (fun ctx _ -> W.write_string ctx addr "from child"; 0) 0 in
  check Alcotest.int "exit ok" 0 (W.sthread_join main h);
  check Alcotest.string "parent sees write" "from child" (W.read_string main addr 10)

let test_sthread_cow_grant_isolates_writes () =
  let _, app, main = mk_app () in
  let tag = W.tag_new main in
  let addr = W.smalloc main 16 tag in
  W.write_string main addr "original--";
  W.boot app;
  let sc = W.sc_create () in
  W.sc_mem_add sc tag Prot.COW;
  let h =
    W.sthread_create main sc
      (fun ctx _ ->
        W.write_string ctx addr "childwrite";
        if W.read_string ctx addr 10 = "childwrite" then 1 else 0)
      0
  in
  check Alcotest.int "child saw its write" 1 (W.sthread_join main h);
  check Alcotest.string "parent unaffected" "original--" (W.read_string main addr 10)

let test_sthread_pristine_snapshot_is_pre_main () =
  (* Globals written after boot ("main() has run") must not leak to
     sthreads: they see the pristine snapshot. *)
  let _, app, main = mk_app () in
  let global = Wedge_kernel.Layout.data_base + 0x100 in
  W.write_string main global "init";
  W.boot app;
  W.write_string main global "SECRET-AFTER-MAIN";
  let h =
    W.sthread_create main (W.sc_create ())
      (fun ctx _ -> if W.read_string ctx global 4 = "init" then 1 else 0)
      0
  in
  check Alcotest.int "sthread sees pristine globals" 1 (W.sthread_join main h)

let test_sthread_private_writes_dont_leak_back () =
  let _, app, main = mk_app () in
  let global = Wedge_kernel.Layout.data_base + 0x200 in
  W.write_string main global "base";
  W.boot app;
  let h = W.sthread_create main (W.sc_create ()) (fun ctx _ -> W.write_string ctx global "evil"; 0) 0 in
  ignore (W.sthread_join main h);
  check Alcotest.string "parent globals intact" "base" (W.read_string main global 4)

let test_sthreads_isolated_from_each_other () =
  let _, app, main = mk_app () in
  let t1 = W.tag_new ~name:"one" main in
  let a1 = W.smalloc main 8 t1 in
  W.write_string main a1 "mine";
  W.boot app;
  let sc1 = W.sc_create () in
  W.sc_mem_add sc1 t1 Prot.RW;
  (* Second sthread with no grants must not see tag 1 even though another
     sthread has it mapped. *)
  ignore (W.sthread_create main sc1 (fun ctx _ -> W.read_u8 ctx a1) 0);
  let h2 = W.sthread_create main (W.sc_create ()) (fun ctx _ -> W.read_u8 ctx a1) 0 in
  check Alcotest.bool "peer denied" true (faulted main h2)

let test_sthread_heap_is_private () =
  let _, app, main = mk_app () in
  W.boot app;
  (* Child mallocs and records the address; a sibling cannot read it. *)
  let addr = ref 0 in
  let h1 =
    W.sthread_create main (W.sc_create ())
      (fun ctx _ ->
        let p = W.malloc ctx 64 in
        W.write_string ctx p "heap secret";
        addr := p;
        0)
      0
  in
  ignore (W.sthread_join main h1);
  let a = !addr in
  let h2 = W.sthread_create main (W.sc_create ()) (fun ctx _ -> W.read_u8 ctx a) 0 in
  check Alcotest.bool "sibling heap unreadable" true (faulted main h2)

(* ---------- privilege subset rule ---------- *)

let test_child_cannot_be_granted_what_parent_lacks () =
  let _, app, main = mk_app () in
  let tag = W.tag_new ~name:"t" main in
  W.boot app;
  let sc_r = W.sc_create () in
  W.sc_mem_add sc_r tag Prot.R;
  let inner_result = ref `Not_run in
  let h =
    W.sthread_create main sc_r
      (fun ctx _ ->
        (* This sthread holds R; it must not be able to spawn an RW child. *)
        let sc_rw = W.sc_create () in
        W.sc_mem_add sc_rw tag Prot.RW;
        (match W.sthread_create ctx sc_rw (fun _ _ -> 0) 0 with
        | _ -> inner_result := `Created
        | exception W.Privilege_violation _ -> inner_result := `Denied);
        0)
      0
  in
  ignore (W.sthread_join main h);
  check Alcotest.bool "escalation denied" true (!inner_result = `Denied)

let test_grant_of_unheld_tag_rejected () =
  let _, app, main = mk_app () in
  let tag = W.tag_new main in
  W.boot app;
  let sc_none = W.sc_create () in
  let outcome = ref `Not_run in
  let h =
    W.sthread_create main sc_none
      (fun ctx _ ->
        let sc = W.sc_create () in
        W.sc_mem_add sc tag Prot.R;
        (match W.sthread_create ctx sc (fun _ _ -> 0) 0 with
        | _ -> outcome := `Created
        | exception W.Privilege_violation _ -> outcome := `Denied);
        0)
      0
  in
  ignore (W.sthread_join main h);
  check Alcotest.bool "unheld tag denied" true (!outcome = `Denied)

let test_uid_change_requires_root () =
  let _, app, main = mk_app () in
  W.boot app;
  let sc = W.sc_create () in
  W.sc_set_uid sc 1000;
  let h =
    W.sthread_create main sc
      (fun ctx _ ->
        (* Non-root sthread tries to create a root child. *)
        let sc_root = W.sc_create () in
        W.sc_set_uid sc_root 0;
        (match W.sthread_create ctx sc_root (fun _ _ -> 0) 0 with
        | _ -> 1
        | exception W.Privilege_violation _ -> 2))
      0
  in
  check Alcotest.int "setuid 0 denied to non-root" 2 (W.sthread_join main h)

(* The chroot counterpart: only uid 0 may give a child another root.  The
   refusal is caught inside the child, which reports it. *)
let test_chroot_requires_root () =
  let _, app, main = mk_app () in
  W.boot app;
  let sc = W.sc_create () in
  W.sc_set_uid sc 99;
  let h =
    W.sthread_create main sc
      (fun ctx _ ->
        let sc_jail = W.sc_create () in
        W.sc_set_root sc_jail "/var/empty";
        match W.sthread_create ctx sc_jail (fun _ _ -> 0) 0 with
        | _ -> 1
        | exception W.Privilege_violation _ -> 2)
      0
  in
  check Alcotest.int "chroot denied to non-root" 2 (W.sthread_join main h)

let test_fd_grant_subset () =
  let _, app, main = mk_app () in
  W.boot app;
  let fd = W.add_endpoint main (Probe.endpoint ~data:"hello" ()) Fd_table.perm_r in
  let sc = W.sc_create () in
  W.sc_fd_add sc fd Fd_table.perm_rw;
  (* descriptor held read-only: rw grant must be rejected *)
  (match W.sthread_create main sc (fun _ _ -> 0) 0 with
  | _ -> Alcotest.fail "expected Privilege_violation"
  | exception W.Privilege_violation _ -> ());
  let sc2 = W.sc_create () in
  W.sc_fd_add sc2 fd Fd_table.perm_r;
  let h =
    W.sthread_create main sc2
      (fun ctx _ -> if Bytes.to_string (W.fd_read ctx fd 5) = "hello" then 3 else 0)
      0
  in
  check Alcotest.int "fd read through grant" 3 (W.sthread_join main h)

let test_ungranted_fd_invisible () =
  let _, app, main = mk_app () in
  W.boot app;
  let fd = W.add_endpoint main (Probe.endpoint ~data:"hello" ()) Fd_table.perm_r in
  let h =
    W.sthread_create main (W.sc_create ())
      (fun ctx _ -> match W.fd_read ctx fd 5 with _ -> 1 | exception W.Fd_error _ -> 2)
      0
  in
  check Alcotest.int "fd invisible" 2 (W.sthread_join main h)

let test_selinux_policy_on_sthread () =
  let k, app, main = mk_app () in
  let se = k.Kernel.selinux in
  Selinux.allow_transition se ~from_:"init_t" ~to_:"locked_t";
  Selinux.allow se ~domain:"locked_t" ~syscall:"sthread_join";
  W.boot app;
  let tag = ref None in
  let sc = W.sc_create () in
  W.sc_sel_context sc "system_u:system_r:locked_t";
  let h =
    W.sthread_create main sc
      (fun ctx _ ->
        (* tag_new is not in locked_t's policy: denied. *)
        (match W.tag_new ctx with t -> tag := Some t | exception Kernel.Eperm _ -> ());
        99)
      0
  in
  (* The Eperm was raised after the compartment caught it? No: uncaught
     Eperm faults the sthread. Here we catch it inside, so exit is clean. *)
  check Alcotest.int "body ran" 99 (W.sthread_join main h);
  check Alcotest.bool "tag_new denied" true (!tag = None)

let test_selinux_transition_must_be_allowed () =
  let _, app, main = mk_app () in
  W.boot app;
  let sc = W.sc_create () in
  W.sc_sel_context sc "system_u:system_r:random_t";
  match W.sthread_create main sc (fun _ _ -> 0) 0 with
  | _ -> Alcotest.fail "expected transition denial"
  | exception W.Privilege_violation _ -> ()

(* ---------- callgates ---------- *)

let test_callgate_accesses_secret_for_unprivileged_caller () =
  let _, app, main = mk_app () in
  let secret = W.tag_new ~name:"secret" main in
  let key = W.smalloc main 16 secret in
  W.write_string main key "0123456789abcdef";
  W.boot app;
  let cgsc = W.sc_create () in
  W.sc_mem_add cgsc secret Prot.R;
  let worker_sc = W.sc_create () in
  let gate =
    W.sc_cgate_add main worker_sc ~name:"sum_key"
      ~entry:(fun gctx ~trusted ~arg:_ ->
        let b = W.read_bytes gctx trusted 16 in
        Bytes.fold_left (fun acc c -> acc + Char.code c) 0 b)
      ~cgsc ~trusted:key
  in
  let expected = String.fold_left (fun acc c -> acc + Char.code c) 0 "0123456789abcdef" in
  let h =
    W.sthread_create main worker_sc
      (fun ctx _ ->
        (* Direct read is denied... *)
        let direct = match W.read_u8 ctx key with _ -> `Read | exception _ -> `Denied in
        assert (direct = `Denied);
        (* ...but the callgate computes over the secret on our behalf. *)
        W.cgate ctx gate ~perms:(W.sc_create ()) ~arg:0)
      0
  in
  check Alcotest.int "callgate result" expected (W.sthread_join main h)

let test_callgate_requires_capability () =
  let _, app, main = mk_app () in
  W.boot app;
  let sc_with = W.sc_create () in
  let gate =
    W.sc_cgate_add main sc_with ~name:"noop"
      ~entry:(fun _ ~trusted:_ ~arg -> arg + 1)
      ~cgsc:(W.sc_create ()) ~trusted:0
  in
  (* An sthread whose policy does NOT include the gate cannot invoke it. *)
  let h =
    W.sthread_create main (W.sc_create ())
      (fun ctx _ ->
        match W.cgate ctx gate ~perms:(W.sc_create ()) ~arg:1 with
        | _ -> 1
        | exception W.Privilege_violation _ -> 2)
      0
  in
  check Alcotest.int "uninvocable without grant" 2 (W.sthread_join main h);
  let h2 = W.sthread_create main sc_with (fun ctx _ -> W.cgate ctx gate ~perms:(W.sc_create ()) ~arg:1) 0 in
  check Alcotest.int "invocable with grant" 2 (W.sthread_join main h2)

let test_callgate_trusted_arg_tamperproof () =
  (* The trusted argument is kernel-held: the caller passes only its own
     untrusted argument and cannot redirect the gate to other memory. *)
  let _, app, main = mk_app () in
  let secret = W.tag_new ~name:"secret" main in
  let real = W.smalloc main 8 secret in
  W.write_string main real "realdata";
  let decoy = W.smalloc main 8 secret in
  W.write_string main decoy "decoy!!!";
  W.boot app;
  let cgsc = W.sc_create () in
  W.sc_mem_add cgsc secret Prot.R;
  let sc = W.sc_create () in
  let gate =
    W.sc_cgate_add main sc ~name:"read_trusted"
      ~entry:(fun gctx ~trusted ~arg:_ ->
        if W.read_string gctx trusted 8 = "realdata" then 1 else 0)
      ~cgsc ~trusted:real
  in
  let h =
    W.sthread_create main sc
      (fun ctx _ -> W.cgate ctx gate ~perms:(W.sc_create ()) ~arg:decoy)
      0
  in
  check Alcotest.int "gate read the kernel-held trusted arg" 1 (W.sthread_join main h)

let test_callgate_creation_requires_creator_privilege () =
  let _, app, main = mk_app () in
  let secret = W.tag_new ~name:"secret" main in
  W.boot app;
  (* An unprivileged sthread cannot mint a callgate with access to the
     secret tag. *)
  let h =
    W.sthread_create main (W.sc_create ())
      (fun ctx _ ->
        let cgsc = W.sc_create () in
        W.sc_mem_add cgsc secret Prot.R;
        match
          W.sc_cgate_add ctx (W.sc_create ()) ~name:"evil"
            ~entry:(fun _ ~trusted:_ ~arg -> arg)
            ~cgsc ~trusted:0
        with
        | _ -> 1
        | exception W.Privilege_violation _ -> 2)
      0
  in
  check Alcotest.int "gate minting denied" 2 (W.sthread_join main h)

let test_callgate_extra_perms_validated_against_caller () =
  let _, app, main = mk_app () in
  let secret = W.tag_new ~name:"secret" main in
  let addr = W.smalloc main 8 secret in
  W.write_string main addr "Sesame42";
  W.boot app;
  let sc = W.sc_create () in
  let gate =
    W.sc_cgate_add main sc ~name:"echo"
      ~entry:(fun gctx ~trusted:_ ~arg ->
        match W.read_u8 gctx arg with v -> v | exception _ -> -7)
      ~cgsc:(W.sc_create ()) ~trusted:0
  in
  let h =
    W.sthread_create main sc
      (fun ctx _ ->
        (* The caller does not hold [secret], so it cannot slip the gate a
           read grant on it ("confused deputy"). *)
        let perms = W.sc_create () in
        W.sc_mem_add perms secret Prot.R;
        match W.cgate ctx gate ~perms ~arg:addr with
        | _ -> 1
        | exception W.Privilege_violation _ -> 2)
      0
  in
  check Alcotest.int "perm smuggling denied" 2 (W.sthread_join main h)

let test_callgate_arg_passing_via_tag () =
  (* The idiomatic pattern (§4.1): the caller smallocs its argument in a
     tag and passes read permission for that tag along with the call. *)
  let _, app, main = mk_app () in
  W.boot app;
  let argtag = W.tag_new ~name:"args" main in
  let sc = W.sc_create () in
  W.sc_mem_add sc argtag Prot.RW;
  let gate =
    W.sc_cgate_add main sc ~name:"strlen"
      ~entry:(fun gctx ~trusted:_ ~arg ->
        let len = W.read_u8 gctx arg in
        String.length (W.read_string gctx (arg + 1) len))
      ~cgsc:(W.sc_create ()) ~trusted:0
  in
  let h =
    W.sthread_create main sc
      (fun ctx _ ->
        let buf = W.smalloc ctx 32 argtag in
        W.write_u8 ctx buf 5;
        W.write_string ctx (buf + 1) "hello";
        let perms = W.sc_create () in
        W.sc_mem_add perms argtag Prot.R;
        W.cgate ctx gate ~perms ~arg:buf)
      0
  in
  check Alcotest.int "gate read caller's tagged arg" 5 (W.sthread_join main h)

let test_callgate_fault_contained () =
  let _, app, main = mk_app () in
  let secret = W.tag_new main in
  let addr = W.smalloc main 8 secret in
  W.boot app;
  let sc = W.sc_create () in
  let gate =
    W.sc_cgate_add main sc ~name:"crasher"
      ~entry:(fun gctx ~trusted:_ ~arg:_ -> W.read_u8 gctx addr)
      ~cgsc:(W.sc_create ()) ~trusted:0
  in
  let h =
    W.sthread_create main sc (fun ctx _ -> W.cgate ctx gate ~perms:(W.sc_create ()) ~arg:0) 0
  in
  check Alcotest.int "faulting gate returns -1, caller survives" (-1) (W.sthread_join main h)

let test_callgate_runs_with_creator_identity () =
  let k, app, main = mk_app () in
  Vfs.install k.Kernel.vfs ~uid:0 ~mode:0o600 "/etc/shadow" "top-secret";
  W.boot app;
  let sc = W.sc_create () in
  W.sc_set_uid sc 1000;
  let gate =
    (* Created by root main: the gate runs as root even when invoked by the
       uid-1000 worker (it "inherits the filesystem root and user id of its
       creator", §3.3). *)
    W.sc_cgate_add main sc ~name:"read_shadow"
      ~entry:(fun gctx ~trusted:_ ~arg:_ ->
        match W.vfs_read gctx "/etc/shadow" with Ok _ -> 1 | Error _ -> 0)
      ~cgsc:(W.sc_create ()) ~trusted:0
  in
  let h =
    W.sthread_create main sc
      (fun ctx _ ->
        let direct = match W.vfs_read ctx "/etc/shadow" with Ok _ -> 1 | Error _ -> 0 in
        let via_gate = W.cgate ctx gate ~perms:(W.sc_create ()) ~arg:0 in
        (direct * 10) + via_gate)
      0
  in
  check Alcotest.int "direct denied, gate allowed" 1 (W.sthread_join main h)

let test_recycled_callgate_state_persists () =
  let _, app, main = mk_app () in
  W.boot app;
  let sc = W.sc_create () in
  let gate =
    W.sc_cgate_add ~spawn:W.Recycle main sc ~name:"counter"
      ~entry:(fun gctx ~trusted:_ ~arg:_ ->
        (* Recycled gates keep their private heap across invocations: a
           counter stored there increments per call. *)
        let cell = 0x02000000 + 40 in
        if not (Probe.readable gctx ~addr:cell ~len:8) then ignore (W.malloc gctx 8);
        let v = W.read_u64 gctx cell + 1 in
        W.write_u64 gctx cell v;
        v)
      ~cgsc:(W.sc_create ()) ~trusted:0
  in
  let h =
    W.sthread_create main sc
      (fun ctx _ ->
        let a = W.cgate ctx gate ~perms:(W.sc_create ()) ~arg:0 in
        let b = W.cgate ctx gate ~perms:(W.sc_create ()) ~arg:0 in
        let c = W.cgate ctx gate ~perms:(W.sc_create ()) ~arg:0 in
        (a * 100) + (b * 10) + c)
      0
  in
  check Alcotest.int "recycled state persisted" 123 (W.sthread_join main h)

let test_fresh_callgate_state_does_not_persist () =
  let _, app, main = mk_app () in
  W.boot app;
  let sc = W.sc_create () in
  let gate =
    W.sc_cgate_add main sc ~name:"counter"
      ~entry:(fun gctx ~trusted:_ ~arg:_ ->
        let cell = 0x02000000 + 40 in
        if not (Probe.readable gctx ~addr:cell ~len:8) then ignore (W.malloc gctx 8);
        let v = W.read_u64 gctx cell + 1 in
        W.write_u64 gctx cell v;
        v)
      ~cgsc:(W.sc_create ()) ~trusted:0
  in
  let h =
    W.sthread_create main sc
      (fun ctx _ ->
        let a = W.cgate ctx gate ~perms:(W.sc_create ()) ~arg:0 in
        let b = W.cgate ctx gate ~perms:(W.sc_create ()) ~arg:0 in
        (a * 10) + b)
      0
  in
  check Alcotest.int "fresh gates do not accumulate" 11 (W.sthread_join main h)

let test_recycled_callgate_cheaper () =
  let _, app, main = mk_app ~costs:Cost_model.default () in
  W.boot app;
  let k = W.kernel app in
  let sc = W.sc_create () in
  let mk recycled name =
    W.sc_cgate_add ~spawn:(if recycled then W.Recycle else W.Boot) main sc ~name
      ~entry:(fun _ ~trusted:_ ~arg -> arg)
      ~cgsc:(W.sc_create ()) ~trusted:0
  in
  let fresh = mk false "fresh" and recy = mk true "recycled" in
  let h =
    W.sthread_create main sc
      (fun ctx _ ->
        (* Warm up the recycled gate, then time one call of each. *)
        ignore (W.cgate ctx recy ~perms:(W.sc_create ()) ~arg:0);
        let t0 = Clock.now k.Kernel.clock in
        ignore (W.cgate ctx fresh ~perms:(W.sc_create ()) ~arg:0);
        let t1 = Clock.now k.Kernel.clock in
        ignore (W.cgate ctx recy ~perms:(W.sc_create ()) ~arg:0);
        let t2 = Clock.now k.Kernel.clock in
        let fresh_cost = t1 - t0 and recy_cost = t2 - t1 in
        if fresh_cost > 4 * recy_cost then 1 else 0)
      0
  in
  check Alcotest.int "recycled much cheaper than fresh" 1 (W.sthread_join main h)

(* A descriptor the caller passes in [perms] is duplicated into the gate
   like every other descriptor grant, at one [fd_dup], whichever spawn
   builds the invocation. *)
let test_gate_extra_descriptor_priced () =
  let k, app, main = mk_app ~costs:Cost_model.default () in
  W.boot app;
  let fd = Fd_table.add (W.proc main).Process.fds (Probe.endpoint ()) Fd_table.perm_rw in
  let with_fd = W.sc_create () in
  W.sc_fd_add with_fd fd Fd_table.perm_r;
  Wedge_sim.Fiber.run (fun () ->
      let image = W.Pool.freeze ~name:"gate" main (W.sc_create ()) in
      List.iter
        (fun (what, spawn) ->
          let gate =
            W.sc_cgate_add ~spawn main (W.sc_create ()) ~name:what
              ~entry:(fun _ ~trusted:_ ~arg:_ -> 0)
              ~cgsc:(W.sc_create ()) ~trusted:0
          in
          let cost perms =
            let t0 = Clock.now k.Kernel.clock in
            ignore (W.cgate main gate ~perms ~arg:0);
            Clock.now k.Kernel.clock - t0
          in
          (* the first call builds a recycled gate's member *)
          ignore (cost (W.sc_create ()));
          let bare = cost (W.sc_create ()) in
          check Alcotest.int (what ^ ": one fd_dup more")
            (bare + Cost_model.default.Cost_model.fd_dup)
            (cost with_fd))
        [ ("boot", W.Boot); ("recycle", W.Recycle); ("stamp", W.Stamp image) ])

(* A recycled member keeps its address space between calls, but a
   caller's extra grants are that call's alone: the next call, made
   without them, finds the tag unmapped.  The entry catches its own
   fault, so one member serves both calls. *)
let test_recycled_extras_unmapped_after_call () =
  let _, app, main = mk_app () in
  W.boot app;
  let tag = W.tag_new ~name:"extra" ~pages:1 main in
  let addr = W.smalloc main 8 tag in
  W.write_u8 main addr 42;
  let pids = ref [] in
  let gate =
    W.sc_cgate_add ~spawn:W.Recycle main (W.sc_create ()) ~name:"peek"
      ~entry:(fun gctx ~trusted:_ ~arg:_ ->
        pids := W.pid gctx :: !pids;
        match W.read_u8 gctx addr with v -> v | exception Vm.Fault _ -> -2)
      ~cgsc:(W.sc_create ()) ~trusted:0
  in
  let extra = W.sc_create () in
  W.sc_mem_add extra tag Prot.R;
  check Alcotest.int "extra grant mapped for its call" 42 (W.cgate main gate ~perms:extra ~arg:0);
  check Alcotest.int "extra grant gone on the next call" (-2)
    (W.cgate main gate ~perms:(W.sc_create ()) ~arg:0);
  check Alcotest.int "one member served both calls" 1
    (List.length (List.sort_uniq compare !pids))

(* Two instances of one gate name share their recycled members (a
   per-connection gate is minted anew for every connection).  Instance 1
   grants a tag and a descriptor; after the member is remapped to
   instance 2, which grants neither, its entry probes both.  Checks that
   both instances ran on one member, and returns (tag readable,
   descriptor held) as instance 2 saw them. *)
let remapped_member_probe () =
  let _, app, main = mk_app () in
  W.boot app;
  let tag = W.tag_new ~name:"conn1" ~pages:1 main in
  let addr = W.smalloc main 8 tag in
  W.write_u8 main addr 7;
  let fd = Fd_table.add (W.proc main).Process.fds (Probe.endpoint ()) Fd_table.perm_rw in
  let first_pid = ref None and seen = ref None in
  let instance cgsc entry =
    W.sc_cgate_add ~spawn:W.Recycle main (W.sc_create ()) ~name:"conn" ~entry ~cgsc ~trusted:0
  in
  let first =
    let cgsc = W.sc_create () in
    W.sc_mem_add cgsc tag Prot.R;
    W.sc_fd_add cgsc fd Fd_table.perm_r;
    instance cgsc (fun gctx ~trusted:_ ~arg:_ ->
        first_pid := Some (W.pid gctx);
        W.read_u8 gctx addr)
  in
  check Alcotest.int "first instance reads its tag" 7
    (W.cgate main first ~perms:(W.sc_create ()) ~arg:0);
  W.cgate_delete main first;
  let second =
    instance (W.sc_create ()) (fun gctx ~trusted:_ ~arg:_ ->
        let readable = match W.read_u8 gctx addr with _ -> true | exception Vm.Fault _ -> false in
        let held = match W.fd_read gctx fd 0 with _ -> true | exception W.Fd_error _ -> false in
        seen := Some (W.pid gctx, readable, held);
        0)
  in
  check Alcotest.int "second instance ran" 0 (W.cgate main second ~perms:(W.sc_create ()) ~arg:0);
  match !seen with
  | Some (pid, readable, held) ->
      check Alcotest.(option int) "one member served both instances" !first_pid (Some pid);
      (readable, held)
  | None -> Alcotest.fail "second instance's entry never ran"

let test_remap_drops_old_tags () =
  check Alcotest.bool "first instance's tag unmapped" false (fst (remapped_member_probe ()))

let test_remap_drops_old_fds () =
  check Alcotest.bool "first instance's descriptor closed" false (snd (remapped_member_probe ()))

let test_tag_delete_revokes_from_pooled_sthreads () =
  (* tag_delete is a global revocation: the pooled sthread behind a
     recycled callgate keeps its address space across invocations, so if
     deletion only unmapped the deleter's pages the pool would retain a
     live window onto frames the tag cache is about to scrub and hand to
     the next connection. *)
  let k, app, main = mk_app () in
  W.boot app;
  let tag = W.tag_new ~name:"conn" ~pages:1 main in
  let addr = W.smalloc main 16 tag in
  W.write_string main addr "per-conn secret!";
  let sc = W.sc_create () in
  let cgsc = W.sc_create () in
  W.sc_mem_add cgsc tag Prot.R;
  let gate =
    W.sc_cgate_add ~spawn:W.Recycle main sc ~name:"peek"
      ~entry:(fun gctx ~trusted:_ ~arg:_ -> W.read_u8 gctx addr)
      ~cgsc ~trusted:0
  in
  let invoke () =
    W.sthread_join main
      (W.sthread_create main sc (fun ctx _ -> W.cgate ctx gate ~perms:(W.sc_create ()) ~arg:0) 0)
  in
  check Alcotest.int "pooled gate reads the tag" (Char.code 'p') (invoke ());
  W.tag_delete main tag;
  check Alcotest.bool "remote revocation recorded" true
    (Stats.get k.Kernel.stats "tlb.remote_shootdown" >= 1);
  (* The pooled sthread survived the delete but its mapping did not: the
     next invocation faults instead of reading stale memory. *)
  check Alcotest.int "pooled gate lost access" (-1) (invoke ())

(* ---------- fork baseline ---------- *)

let test_fork_inherits_secrets () =
  (* The behaviour Wedge exists to avoid: a forked child reads everything
     the parent had, without any grant. *)
  let _, app, main = mk_app () in
  let secret = W.tag_new ~name:"secret" main in
  let addr = W.smalloc main 16 secret in
  W.write_string main addr "inherited-secret";
  W.boot app;
  let h = W.fork main (fun child -> if W.read_string child addr 16 = "inherited-secret" then 1 else 0) in
  check Alcotest.int "fork child read the secret" 1 (W.sthread_join main h)

let test_fork_cow_isolation () =
  let _, app, main = mk_app () in
  let tag = W.tag_new main in
  let addr = W.smalloc main 16 tag in
  W.write_string main addr "parent-data-----";
  W.boot app;
  let h = W.fork main (fun child -> W.write_string child addr "child-data------"; 0) in
  ignore (W.sthread_join main h);
  check Alcotest.string "parent unaffected by child writes" "parent-data-----"
    (W.read_string main addr 16)

(* ---------- smalloc_on / smalloc_off / boundary ---------- *)

let test_smalloc_on_redirects_malloc () =
  let _, app, main = mk_app () in
  let tag = W.tag_new ~name:"legacy" main in
  W.boot app;
  W.smalloc_on main tag;
  let p = W.malloc main 32 in
  W.smalloc_off main;
  let q = W.malloc main 32 in
  check Alcotest.bool "redirected into tag segment" true
    (p >= tag.Tag.base && p < tag.Tag.base + (tag.Tag.pages * 4096));
  check Alcotest.bool "back to private heap" true (q >= 0x02000000 && q < 0x02000000 + (256 * 4096));
  (* Data written via the redirected pointer is shareable via the tag. *)
  W.write_string main p "legacy";
  let sc = W.sc_create () in
  W.sc_mem_add sc tag Prot.R;
  let h = W.sthread_create main sc (fun ctx _ -> if W.read_string ctx p 6 = "legacy" then 1 else 0) 0 in
  check Alcotest.int "shared" 1 (W.sthread_join main h)

let test_smalloc_on_save_restore () =
  let _, app, main = mk_app () in
  let t1 = W.tag_new ~name:"t1" main in
  let t2 = W.tag_new ~name:"t2" main in
  W.boot app;
  W.smalloc_on main t1;
  (* Not reentrant (§4.1): the caller restores the tag it set. *)
  W.smalloc_on main t2;
  let p2 = W.malloc main 16 in
  W.smalloc_on main t1;
  let p1 = W.malloc main 16 in
  W.smalloc_off main;
  check Alcotest.bool "inner in t2" true (p2 >= t2.Tag.base && p2 < t2.Tag.base + (16 * 4096));
  check Alcotest.bool "restored to t1" true (p1 >= t1.Tag.base && p1 < t1.Tag.base + (16 * 4096))

let test_boundary_var_excluded_from_snapshot () =
  let _, app, main = mk_app () in
  let addr = W.boundary_var app ~id:1 ~name:"static_key" ~size:64 in
  W.write_string main addr "statically-initialized-secret";
  W.boot app;
  (* Default sthread: boundary section is NOT part of the pristine map. *)
  let h = W.sthread_create main (W.sc_create ()) (fun ctx _ -> W.read_u8 ctx addr) 0 in
  check Alcotest.bool "boundary var invisible by default" true (faulted main h);
  (* But grantable through its BOUNDARY_TAG. *)
  let btag = W.boundary_tag main ~id:1 in
  let sc = W.sc_create () in
  W.sc_mem_add sc btag Prot.R;
  let h2 =
    W.sthread_create main sc
      (fun ctx _ -> if W.read_string ctx addr 29 = "statically-initialized-secret" then 1 else 0)
      0
  in
  check Alcotest.int "grantable via boundary tag" 1 (W.sthread_join main h2)

let test_boundary_var_requires_preboot () =
  let _, app, _ = mk_app () in
  W.boot app;
  match W.boundary_var app ~id:9 ~name:"late" ~size:8 with
  | _ -> Alcotest.fail "expected rejection after boot"
  | exception Invalid_argument _ -> ()

(* ---------- tag lifecycle through the engine ---------- *)

let test_tag_delete_and_reuse () =
  let k, app, main = mk_app () in
  W.boot app;
  let t1 = W.tag_new ~name:"a" ~pages:4 main in
  let base1 = t1.Tag.base in
  let p = W.smalloc main 64 t1 in
  W.write_string main p "sensitive" ;
  W.tag_delete main t1;
  let t2 = W.tag_new ~name:"b" ~pages:4 main in
  check Alcotest.int "range reused from cache" base1 t2.Tag.base;
  check Alcotest.int "one cache hit" 1 (Stats.get k.Kernel.stats "tag_new.reuse");
  (* Reused memory was scrubbed: allocate and look for remnants. *)
  let q = W.smalloc main 64 t2 in
  let b = W.read_bytes main q 64 in
  check Alcotest.bool "no remnant data" false
    (String.length (Bytes.to_string b) >= 9 && Bytes.to_string b = "sensitive")

let test_tag_delete_requires_rw () =
  let _, app, main = mk_app () in
  let tag = W.tag_new main in
  W.boot app;
  let sc = W.sc_create () in
  W.sc_mem_add sc tag Prot.R;
  let h =
    W.sthread_create main sc
      (fun ctx _ ->
        match W.tag_delete ctx tag with
        | _ -> 1
        | exception W.Privilege_violation _ -> 2)
      0
  in
  check Alcotest.int "delete denied to reader" 2 (W.sthread_join main h)

let test_untagged_memory_cannot_be_named () =
  (* Memory allocated without a tag cannot appear in any policy (§3.2): the
     API makes it impossible — mem grants require a Tag.t. This test pins
     the closest observable: a child granted every live tag still cannot
     reach the parent's heap allocation. *)
  let _, app, main = mk_app () in
  W.boot app;
  let p = W.malloc main 32 in
  W.write_string main p "untagged secret";
  let sc = W.sc_create () in
  let h = W.sthread_create main sc (fun ctx _ -> W.read_u8 ctx p) 0 in
  check Alcotest.bool "parent heap unreachable" true (faulted main h)

(* ---------- costs (Figure 7 shape, sanity level) ---------- *)

let test_sthread_cost_similar_to_fork () =
  let k, app, main = mk_app ~costs:Cost_model.default () in
  W.boot app;
  let clock = k.Kernel.clock in
  let time f = let t0 = Clock.now clock in f (); Clock.now clock - t0 in
  let sthread_t =
    time (fun () -> ignore (W.sthread_create main (W.sc_create ()) (fun _ _ -> 0) 0))
  in
  let fork_t = time (fun () -> ignore (W.fork main (fun _ -> 0))) in
  let pthread_t = time (fun () -> ignore (W.pthread main (fun _ -> 0))) in
  check Alcotest.bool "sthread within 2x of fork" true
    (sthread_t < fork_t * 2 && fork_t < sthread_t * 2);
  check Alcotest.bool "sthread much dearer than pthread" true (sthread_t > 4 * pthread_t)

(* ---------- host footprint ---------- *)

(* Host words as the repository benchmark counts them, exactly: minor
   words plus words allocated directly in the major heap. *)
let host_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. (major -. promoted)

(* Host words [f] allocates on its second run, after the first has grown
   whatever tables it warms. *)
let cost f =
  f ();
  let w0 = host_words () in
  f ();
  host_words () -. w0

(* Building and booting an image costs host memory for its page tables
   and snapshot records, not for its pages: a frame gets host bytes on
   its first write, and boot writes none of the image.  The build's
   page-table entries and frame bookkeeping cost ~13 words a page, and
   boot's snapshot ~11 more: a record, two array slots and three columns
   of what the page was built as; a 4 KiB buffer per frame would add
   513.  Freezing the booted image costs 5 words a page, its two arrays
   and three columns, since it shares the pristine table's records. *)
let test_image_boot_demand_zero () =
  let build pages =
    let k = Kernel.create () in
    let w0 = host_words () in
    let app = W.create_app ~image_pages:pages k in
    let w1 = host_words () in
    W.boot app;
    let w2 = host_words () in
    check Alcotest.int (Printf.sprintf "%d-page image snapshotted" pages) pages
      (Vm.image_size app.Engine.pristine);
    check Alcotest.int (Printf.sprintf "%d-page image: no frame host-backed after boot" pages)
      0 (Physmem.host_frames k.Kernel.pm);
    let freeze = ref 0. in
    Fiber.run ~clock:k.Kernel.clock (fun () ->
        let w3 = host_words () in
        ignore (W.Pool.freeze ~name:"w" (W.main_ctx app) (W.sc_create ()));
        freeze := host_words () -. w3);
    (w1 -. w0, w2 -. w0, !freeze)
  in
  let (build1, total1, freeze1) = build 60 and (build2, total2, freeze2) = build 2_000 in
  let per_page what bound w1 w2 =
    let slope = (w2 -. w1) /. 1_940. in
    if slope >= bound then
      Alcotest.failf "%s: host words grow by %.1f per page from 60 to 2,000 pages (%.0f -> %.0f)"
        what slope w1 w2
  in
  per_page "build" 20. build1 build2;
  per_page "build and boot" 26. total1 total2;
  per_page "freeze" 6. freeze1 freeze2

(* A compartment costs the host what it maps, plus a fixed part: its
   process record, an empty address space — a 64-slot TLB whose slots
   all hold one shared invalid entry and the page table's 512-bucket
   overlay, 513 words of the total — and its descriptor table.  Each operation is measured on its second run,
   after the first has grown the kernel's own tables (process table,
   counters, memo tables) to their steady size.  A warm system call
   allocates nothing: its stats key, its sid's domain and its counter
   are all found without building a string or an option, and the
   takeover point, unarmed, adds one branch to it. *)
let test_compartment_footprint () =
  let k, app, main = mk_app ~costs:Cost_model.default ~image_pages:60 () in
  W.boot app;
  let over = ref [] in
  let under what bound words =
    if words >= bound then over := Printf.sprintf "%s: %.2f (bound %.0f)" what words bound :: !over
  in
  Fiber.run ~clock:k.Kernel.clock (fun () ->
      let pool = W.Pool.freeze ~name:"w" main (W.sc_create ()) in
      let gate =
        W.sc_cgate_add ~spawn:(W.Stamp pool) main (W.sc_create ()) ~name:"g"
          ~entry:(fun _ ~trusted:_ ~arg:_ -> 0)
          ~cgsc:(W.sc_create ()) ~trusted:0
      in
      under "stamped sthread spawn + reap" 900.
        (cost (fun () ->
             ignore (W.sthread_create ~spawn:(W.Stamp pool) main (W.sc_create ()) (fun _ _ -> 0) 0)));
      under "stamped callgate call" 900.
        (cost (fun () -> ignore (W.cgate main gate ~perms:(W.sc_create ()) ~arg:0))));
  under "new_process + reap" 900.
    (cost (fun () ->
         Kernel.reap k
           (Kernel.new_process k ~kind:Process.Sthread ~uid:33 ~root:"/" ~sid:"u:r:worker_t" ())));
  let p = main.Engine.proc in
  let per_call =
    cost (fun () ->
        for _ = 1 to 1_000 do
          Kernel.syscall_check k p "read"
        done)
    /. 1_000.
  in
  under "warm syscall_check, per call" 1. per_call;
  let per_enter =
    cost (fun () ->
        for _ = 1 to 1_000 do
          Engine.enter main "read"
        done)
    /. 1_000.
  in
  under "warm Engine.enter, unarmed, per call" 1. per_enter;
  if !over <> [] then Alcotest.failf "host words over bound: %s" (String.concat "; " (List.rev !over))

(* One host copy per simulated copy.  An 8 KiB [read_string] allocates
   its result, which is the MMU read's own buffer, and a few words; an
   8 KiB [write_string] hands the caller's string to the MMU and
   allocates a few words.  Each once paid one more 8 KiB copy (1,026
   words, header included): ~2,060 and ~1,040 words before. *)
let test_string_accessors_one_copy () =
  let _, app, main = mk_app ~costs:Cost_model.default () in
  let tag = W.tag_new ~pages:4 main in
  let len = 8192 in
  let addr = W.smalloc main len tag in
  let s = String.init len (fun i -> Char.chr (i land 0xff)) in
  W.boot app;
  let copy = float ((len / 8) + 2) in
  let write_w = cost (fun () -> W.write_string main addr s) in
  let read_w = cost (fun () -> ignore (Sys.opaque_identity (W.read_string main addr len))) in
  check Alcotest.string "round trip" s (W.read_string main addr len);
  let over = ref [] in
  let under what bound words =
    if words > bound then over := Printf.sprintf "%s: %.0f (bound %.0f)" what words bound :: !over
  in
  under "write_string, 8 KiB" 64. write_w;
  under "read_string, 8 KiB" (copy +. 64.) read_w;
  if !over <> [] then Alcotest.failf "host words over bound: %s" (String.concat "; " (List.rev !over))

let () =
  Alcotest.run "wedge_core"
    [
      ( "default-deny",
        [
          Alcotest.test_case "untagged parent memory invisible" `Quick
            test_sthread_cannot_read_untagged_parent_memory;
          Alcotest.test_case "granted tag readable" `Quick test_sthread_granted_tag_reads;
          Alcotest.test_case "read grant rejects write" `Quick test_sthread_read_grant_rejects_write;
          Alcotest.test_case "rw grant shares writes" `Quick test_sthread_rw_grant_shares_writes;
          Alcotest.test_case "cow grant isolates writes" `Quick test_sthread_cow_grant_isolates_writes;
          Alcotest.test_case "pristine snapshot pre-main" `Quick test_sthread_pristine_snapshot_is_pre_main;
          Alcotest.test_case "private writes stay private" `Quick
            test_sthread_private_writes_dont_leak_back;
          Alcotest.test_case "sthreads isolated from each other" `Quick
            test_sthreads_isolated_from_each_other;
          Alcotest.test_case "heap is private" `Quick test_sthread_heap_is_private;
        ] );
      ( "subset-rule",
        [
          Alcotest.test_case "no escalation beyond parent" `Quick
            test_child_cannot_be_granted_what_parent_lacks;
          Alcotest.test_case "unheld tag rejected" `Quick test_grant_of_unheld_tag_rejected;
          Alcotest.test_case "uid change requires root" `Quick test_uid_change_requires_root;
          Alcotest.test_case "chroot requires root" `Quick test_chroot_requires_root;
          Alcotest.test_case "fd grant subset" `Quick test_fd_grant_subset;
          Alcotest.test_case "ungranted fd invisible" `Quick test_ungranted_fd_invisible;
          Alcotest.test_case "selinux syscall policy" `Quick test_selinux_policy_on_sthread;
          Alcotest.test_case "selinux transition check" `Quick test_selinux_transition_must_be_allowed;
        ] );
      ( "callgates",
        [
          Alcotest.test_case "secret behind gate" `Quick
            test_callgate_accesses_secret_for_unprivileged_caller;
          Alcotest.test_case "capability required" `Quick test_callgate_requires_capability;
          Alcotest.test_case "trusted arg tamperproof" `Quick test_callgate_trusted_arg_tamperproof;
          Alcotest.test_case "creation needs creator privilege" `Quick
            test_callgate_creation_requires_creator_privilege;
          Alcotest.test_case "extra perms subset of caller" `Quick
            test_callgate_extra_perms_validated_against_caller;
          Alcotest.test_case "arg passing via tag" `Quick test_callgate_arg_passing_via_tag;
          Alcotest.test_case "fault contained" `Quick test_callgate_fault_contained;
          Alcotest.test_case "creator identity" `Quick test_callgate_runs_with_creator_identity;
          Alcotest.test_case "recycled state persists" `Quick test_recycled_callgate_state_persists;
          Alcotest.test_case "fresh state does not persist" `Quick
            test_fresh_callgate_state_does_not_persist;
          Alcotest.test_case "recycled cheaper" `Quick test_recycled_callgate_cheaper;
          Alcotest.test_case "extra descriptor priced" `Quick test_gate_extra_descriptor_priced;
          Alcotest.test_case "tag delete revokes from pool" `Quick
            test_tag_delete_revokes_from_pooled_sthreads;
          Alcotest.test_case "recycled extras unmapped" `Quick
            test_recycled_extras_unmapped_after_call;
          Alcotest.test_case "remap drops old tags" `Quick test_remap_drops_old_tags;
          Alcotest.test_case "remap drops old fds" `Quick test_remap_drops_old_fds;
        ] );
      ( "fork-baseline",
        [
          Alcotest.test_case "fork inherits secrets" `Quick test_fork_inherits_secrets;
          Alcotest.test_case "fork COW isolation" `Quick test_fork_cow_isolation;
        ] );
      ( "legacy-aids",
        [
          Alcotest.test_case "smalloc_on redirects" `Quick test_smalloc_on_redirects_malloc;
          Alcotest.test_case "smalloc_on save/restore" `Quick test_smalloc_on_save_restore;
          Alcotest.test_case "boundary var excluded" `Quick test_boundary_var_excluded_from_snapshot;
          Alcotest.test_case "boundary var pre-boot only" `Quick test_boundary_var_requires_preboot;
        ] );
      ( "tags",
        [
          Alcotest.test_case "delete and cached reuse" `Quick test_tag_delete_and_reuse;
          Alcotest.test_case "delete requires rw" `Quick test_tag_delete_requires_rw;
          Alcotest.test_case "untagged memory unnameable" `Quick test_untagged_memory_cannot_be_named;
        ] );
      ( "costs",
        [ Alcotest.test_case "sthread ~ fork >> pthread" `Quick test_sthread_cost_similar_to_fork ] );
      ( "host footprint",
        [
          Alcotest.test_case "image boot is demand-zero" `Quick test_image_boot_demand_zero;
          Alcotest.test_case "a compartment costs what it maps" `Quick test_compartment_footprint;
          Alcotest.test_case "string accessors copy once" `Quick test_string_accessors_one_copy;
        ] );
    ]
