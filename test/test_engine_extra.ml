(* Deeper engine coverage: capability delegation, deep nesting, COW
   sharing semantics, instrumentation inheritance, stack frames, the
   recycled-callgate cross-principal residue the paper warns about (§3.3),
   fork vs boundary variables, and property tests of the subset rule. *)

module Kernel = Wedge_kernel.Kernel
module Prot = Wedge_kernel.Prot
module Process = Wedge_kernel.Process
module Fd_table = Wedge_kernel.Fd_table
module Layout = Wedge_kernel.Layout
module Vm = Wedge_kernel.Vm
module Cost_model = Wedge_sim.Cost_model
module Instr = Wedge_sim.Instr
module Stats = Wedge_sim.Stats
module Tag = Wedge_mem.Tag
module Smalloc = Wedge_mem.Smalloc
module W = Wedge_core.Wedge

let check = Alcotest.check

let mk_app () =
  let k = Kernel.create ~costs:Cost_model.free () in
  let app = W.create_app k in
  W.boot app;
  (k, app, W.main_ctx app)

(* ---------- capability delegation ---------- *)

let test_gate_cap_passing () =
  let _, _, main = mk_app () in
  let mid_sc = W.sc_create () in
  let gate =
    W.sc_cgate_add main mid_sc ~name:"g" ~entry:(fun _ ~trusted:_ ~arg -> arg * 2)
      ~cgsc:(W.sc_create ()) ~trusted:0
  in
  let h =
    W.sthread_create main mid_sc
      (fun mid _ ->
        (* The middle sthread holds the capability and passes it on. *)
        let inner_sc = W.sc_create () in
        Wedge_core.Sc.gate_grant inner_sc gate;
        let h2 =
          W.sthread_create mid inner_sc
            (fun inner _ -> W.cgate inner gate ~perms:(W.sc_create ()) ~arg:21)
            0
        in
        W.sthread_join mid h2)
      0
  in
  check Alcotest.int "capability flowed two levels" 42 (W.sthread_join main h)

let test_gate_cap_not_forgeable () =
  let _, _, main = mk_app () in
  let holder_sc = W.sc_create () in
  let gate =
    W.sc_cgate_add main holder_sc ~name:"g" ~entry:(fun _ ~trusted:_ ~arg -> arg)
      ~cgsc:(W.sc_create ()) ~trusted:0
  in
  (* An unrelated sthread (no capability) cannot grant it to a child. *)
  let h =
    W.sthread_create main (W.sc_create ())
      (fun ctx _ ->
        let sc = W.sc_create () in
        Wedge_core.Sc.gate_grant sc gate;
        match W.sthread_create ctx sc (fun _ _ -> 0) 0 with
        | _ -> 1
        | exception W.Privilege_violation _ -> 2)
      0
  in
  check Alcotest.int "unheld capability ungrantable" 2 (W.sthread_join main h)

(* ---------- deep nesting with narrowing ---------- *)

let test_three_level_narrowing () =
  let _, _, main = mk_app () in
  let t = W.tag_new ~name:"t" main in
  let addr = W.smalloc main 16 t in
  W.write_string main addr "deep";
  let l1 = W.sc_create () in
  W.sc_mem_add l1 t Prot.RW;
  let h =
    W.sthread_create main l1
      (fun c1 _ ->
        let l2 = W.sc_create () in
        W.sc_mem_add l2 t Prot.R;
        let h2 =
          W.sthread_create c1 l2
            (fun c2 _ ->
              (* level 2: read-only works, write faults in a child *)
              let l3 = W.sc_create () in
              W.sc_mem_add l3 t Prot.R;
              let h3 =
                W.sthread_create c2 l3
                  (fun c3 _ -> if W.read_string c3 addr 4 = "deep" then 1 else 0)
                  0
              in
              W.sthread_join c2 h3)
            0
        in
        W.sthread_join c1 h2)
      0
  in
  check Alcotest.int "read at depth 3" 1 (W.sthread_join main h)

(* ---------- COW sharing timeline ---------- *)

let test_cow_child_sees_pre_creation_state_only () =
  let _, _, main = mk_app () in
  let t = W.tag_new main in
  let addr = W.smalloc main 16 t in
  W.write_string main addr "v1";
  let sc = W.sc_create () in
  W.sc_mem_add sc t Prot.COW;
  let h =
    W.sthread_create main sc
      (fun ctx _ ->
        (* COW means shared frames: the child reads the data as of access
           time (no write has happened on either side). *)
        let first = W.read_string ctx addr 2 in
        W.write_string ctx addr "cw";
        if first = "v1" && W.read_string ctx addr 2 = "cw" then 1 else 0)
      0
  in
  check Alcotest.int "cow timeline" 1 (W.sthread_join main h);
  check Alcotest.string "parent untouched" "v1" (W.read_string main addr 2)

(* ---------- instr inheritance ---------- *)

let test_instr_inherited_by_sthreads_and_gates () =
  let _, _, main = mk_app () in
  let t = W.tag_new main in
  let addr = W.smalloc main 8 t in
  let accesses = ref 0 in
  let instr = { Instr.null with Instr.on_access = (fun _ _ _ -> incr accesses) } in
  W.set_instr main instr;
  let cgsc = W.sc_create () in
  W.sc_mem_add cgsc t Prot.RW;
  let sc = W.sc_create () in
  let gate =
    W.sc_cgate_add main sc ~name:"g"
      ~entry:(fun g ~trusted ~arg:_ -> W.read_u8 g trusted)
      ~cgsc ~trusted:addr
  in
  let before = !accesses in
  let h =
    W.sthread_create main sc (fun ctx _ -> W.cgate ctx gate ~perms:(W.sc_create ()) ~arg:0) 0
  in
  ignore (W.sthread_join main h);
  W.set_instr main Instr.null;
  check Alcotest.bool "gate access instrumented through inheritance" true (!accesses > before)

(* ---------- stack frames ---------- *)

let test_stack_frames_nest_and_reuse () =
  let _, _, main = mk_app () in
  let outer = ref 0 and inner = ref 0 in
  W.stack_frame main ~name:"outer" ~locals:64 (fun base ->
      outer := base;
      W.write_u64 main base 7;
      W.stack_frame main ~name:"inner" ~locals:32 (fun base2 ->
          inner := base2;
          check Alcotest.bool "grows down" true (base2 < base));
      check Alcotest.int "outer intact after inner pops" 7 (W.read_u64 main base));
  (* After popping, the space is reused. *)
  W.stack_frame main ~name:"again" ~locals:64 (fun base -> check Alcotest.int "reused" !outer base)

let test_stack_overflow_detected () =
  let _, _, main = mk_app () in
  let rec recurse depth k =
    W.stack_frame main ~name:"deep" ~locals:4096 (fun _ ->
        if depth > 0 then recurse (depth - 1) k else k ())
  in
  match recurse (Layout.stack_pages + 4) (fun () -> ()) with
  | () -> Alcotest.fail "expected overflow"
  | exception Invalid_argument _ -> ()

(* ---------- recycled gates: the §3.3 residue warning ---------- *)

let test_recycled_gate_leaks_across_principals () =
  (* "Should a recycled callgate be exploited, and called by sthreads
     acting on behalf of different principals, sensitive arguments from
     one caller may become visible to another."  We model the exploited
     gate as one with an over-read bug. *)
  let _, _, main = mk_app () in
  let argt = W.tag_new ~name:"args" main in
  let arg_block = W.smalloc main 64 argt in
  let run_gate recycled =
    let sc = W.sc_create () in
    W.sc_mem_add sc argt Prot.RW;
    let gate =
      W.sc_cgate_add ~spawn:(if recycled then W.Recycle else W.Boot) main sc
        ~name:(if recycled then "buggy-r" else "buggy-f")
        ~entry:(fun g ~trusted:_ ~arg ->
          (* copies the argument into private heap scratch... *)
          let scratch =
            if W.can_read g ~addr:(Layout.heap_base + 40) ~len:1 then Layout.heap_base + 40
            else W.malloc g 32
          in
          let v = W.read_string g arg 16 in
          (* ...then (buggy) echoes 16 bytes from the scratch BEFORE
             copying the new argument: stale data from the last caller. *)
          let stale = W.read_string g scratch 16 in
          W.write_string g scratch v;
          W.write_string g arg stale;
          1)
        ~cgsc:(W.sc_create ()) ~trusted:0
    in
    let arg_perms () =
      let p = W.sc_create () in
      W.sc_mem_add p argt Prot.RW;
      p
    in
    (* Principal A passes a secret... *)
    let ha =
      W.sthread_create main sc
        (fun ctx _ ->
          W.write_string ctx arg_block "SECRET-OF-ALICE!";
          W.cgate ctx gate ~perms:(arg_perms ()) ~arg:arg_block)
        0
    in
    ignore (W.sthread_join main ha);
    (* ...principal B calls the same gate and reads the echo. *)
    let leaked = ref "" in
    let hb =
      W.sthread_create main sc
        (fun ctx _ ->
          W.write_string ctx arg_block "bbbbbbbbbbbbbbbb";
          ignore (W.cgate ctx gate ~perms:(arg_perms ()) ~arg:arg_block);
          leaked := W.read_string ctx arg_block 16;
          0)
        0
    in
    ignore (W.sthread_join main hb);
    !leaked
  in
  check Alcotest.string "recycled gate leaks A's argument to B" "SECRET-OF-ALICE!"
    (run_gate true);
  check Alcotest.bool "fresh gate has no residue" true (run_gate false <> "SECRET-OF-ALICE!")

(* ---------- fork vs boundary variables ---------- *)

let test_fork_inherits_boundary_vars_sthreads_dont () =
  let k = Kernel.create ~costs:Cost_model.free () in
  let app = W.create_app k in
  let main = W.main_ctx app in
  let addr = W.boundary_var app ~id:1 ~name:"static_secret" ~size:32 in
  W.write_string main addr "statically-init";
  W.boot app;
  let hf = W.fork main (fun child -> if W.read_string child addr 15 = "statically-init" then 1 else 0) in
  check Alcotest.int "fork sees boundary var" 1 (W.sthread_join main hf);
  let hs = W.sthread_create main (W.sc_create ()) (fun ctx _ -> W.read_u8 ctx addr) 0 in
  check Alcotest.bool "sthread does not" true
    (match W.handle_status hs with Process.Faulted _ -> true | _ -> false)

(* ---------- allocation failure is catchable, not fatal ---------- *)

let test_smalloc_oom_catchable_in_compartment () =
  let _, _, main = mk_app () in
  let t = W.tag_new ~pages:1 main in
  let sc = W.sc_create () in
  W.sc_mem_add sc t Prot.RW;
  let h =
    W.sthread_create main sc
      (fun ctx _ ->
        match W.smalloc ctx 100_000 t with
        | _ -> 1
        | exception Smalloc.Out_of_tag_memory _ -> 2)
      0
  in
  check Alcotest.int "OOM catchable" 2 (W.sthread_join main h)

(* ---------- file descriptors on VFS files ---------- *)

let test_file_fd_read_write () =
  let k, _, main = mk_app () in
  Wedge_kernel.Vfs.install k.Kernel.vfs ~mode:0o644 "/data/log" "start:";
  (match W.open_file main ~write:true "/data/log" with
  | Error e -> Alcotest.failf "open: %s" (Wedge_kernel.Vfs.error_to_string e)
  | Ok fd ->
      (* sequential reads advance the offset *)
      check Alcotest.string "read 1" "sta" (Bytes.to_string (W.fd_read main fd 3));
      check Alcotest.string "read 2" "rt:" (Bytes.to_string (W.fd_read main fd 3));
      check Alcotest.string "eof" "" (Bytes.to_string (W.fd_read main fd 3));
      (* writes at the current offset append *)
      W.fd_write main fd (Bytes.of_string "more");
      W.fd_close main fd);
  match Wedge_kernel.Vfs.read_file k.Kernel.vfs ~root:"/" ~uid:0 "/data/log" with
  | Ok data -> check Alcotest.string "appended" "start:more" data
  | Error _ -> Alcotest.fail "file gone"

let test_file_fd_overwrite_mid_file () =
  let k, _, main = mk_app () in
  Wedge_kernel.Vfs.install k.Kernel.vfs ~mode:0o644 "/data/f" "AAAAAA";
  (match W.open_file main ~write:true "/data/f" with
  | Error _ -> Alcotest.fail "open"
  | Ok fd ->
      ignore (W.fd_read main fd 2);
      W.fd_write main fd (Bytes.of_string "bb");
      W.fd_close main fd);
  match Wedge_kernel.Vfs.read_file k.Kernel.vfs ~root:"/" ~uid:0 "/data/f" with
  | Ok data -> check Alcotest.string "patched in place" "AAbbAA" data
  | Error _ -> Alcotest.fail "file gone"

let test_open_file_respects_vfs_perms () =
  let k, _, main = mk_app () in
  Wedge_kernel.Vfs.install k.Kernel.vfs ~uid:0 ~mode:0o600 "/data/secret" "s";
  let sc = W.sc_create () in
  W.sc_set_uid sc 1000;
  let h =
    W.sthread_create main sc
      (fun ctx _ ->
        match W.open_file ctx "/data/secret" with
        | Ok _ -> 1
        | Error Wedge_kernel.Vfs.Eacces -> 2
        | Error _ -> 3)
      0
  in
  check Alcotest.int "open denied by mode bits" 2 (W.sthread_join main h)

let test_readonly_fd_write_rejected () =
  let k, _, main = mk_app () in
  Wedge_kernel.Vfs.install k.Kernel.vfs ~mode:0o644 "/data/ro" "x";
  match W.open_file main "/data/ro" with
  | Error _ -> Alcotest.fail "open"
  | Ok fd -> (
      match W.fd_write main fd (Bytes.of_string "y") with
      | () -> Alcotest.fail "expected Fd_error"
      | exception W.Fd_error _ -> ())

(* The mirror: a write-only descriptor refuses a read, though its
   endpoint has bytes to give. *)
let test_writeonly_fd_read_rejected () =
  let _, _, main = mk_app () in
  let ep =
    {
      Fd_table.ep_read = (fun _ -> Bytes.of_string "x");
      ep_write = (fun _ _ _ -> ());
      ep_wait = ignore;
    }
  in
  let fd = W.add_endpoint main ep Fd_table.perm_w in
  match W.fd_read main fd 1 with
  | _ -> Alcotest.fail "expected Fd_error"
  | exception W.Fd_error _ -> ()

(* A sub-range write outside its buffer is refused before the kernel
   entry: no write trap counted, nothing charged to the clock, no byte
   sent.  An in-range write sends exactly its range under one trap. *)
let test_fd_write_sub_bad_range () =
  let k = Kernel.create ~costs:Cost_model.default () in
  let app = W.create_app k in
  W.boot app;
  let main = W.main_ctx app in
  let sent = Buffer.create 8 in
  let ep =
    {
      Fd_table.ep_read = (fun _ -> Bytes.empty);
      ep_write = (fun b off len -> Buffer.add_subbytes sent b off len);
      ep_wait = ignore;
    }
  in
  let fd = W.add_endpoint main ep Fd_table.perm_rw in
  let b = Bytes.of_string "0123456789" in
  let traps () = Stats.get k.Kernel.stats "trap.write" in
  let t0 = traps () and c0 = Wedge_sim.Clock.now k.Kernel.clock in
  List.iter
    (fun (off, len) ->
      match W.fd_write_sub main fd b off len with
      | () -> Alcotest.failf "range (%d, %d) accepted" off len
      | exception Invalid_argument _ -> ())
    [ (-1, 1); (0, -1); (0, 11); (10, 1); (11, 0); (5, max_int) ];
  check Alcotest.int "no write trap" t0 (traps ());
  check Alcotest.int "nothing charged" c0 (Wedge_sim.Clock.now k.Kernel.clock);
  check Alcotest.string "nothing sent" "" (Buffer.contents sent);
  W.fd_write_sub main fd b 2 5;
  check Alcotest.string "exactly [2, 7) sent" "23456" (Buffer.contents sent);
  check Alcotest.int "one write trap" (t0 + 1) (traps ())

(* ---------- pthread sharing semantics ---------- *)

let test_pthread_shares_everything () =
  (* The comparison baseline: a pthread body runs in the SAME address
     space — it sees and mutates the parent's memory directly. *)
  let _, _, main = mk_app () in
  let t = W.tag_new main in
  let addr = W.smalloc main 8 t in
  W.write_string main addr "before";
  let v = W.pthread main (fun ctx ->
      W.write_string ctx addr "after!";
      W.read_u8 ctx addr)
  in
  check Alcotest.int "ran inline" (Char.code 'a') v;
  check Alcotest.string "writes shared with parent" "after!" (W.read_string main addr 6)

(* ---------- exit codes ---------- *)

let test_exit_sthread_code () =
  let _, _, main = mk_app () in
  let h = W.sthread_create main (W.sc_create ()) (fun _ _ -> W.exit_sthread 42) 0 in
  check Alcotest.int "explicit exit code" 42 (W.sthread_join main h);
  check Alcotest.bool "status records it" true (W.handle_status h = Process.Exited 42)

(* ---------- per-request compartment structure (paper §6) ---------- *)

(* Booted the fork-priced way, as the paper's Wedge row runs it. *)
let test_mitm_request_structure () =
  let k = Kernel.create ~costs:Cost_model.free () in
  let env = Wedge_httpd.Httpd_env.install ~image_pages:80 k in
  Wedge_sim.Fiber.run (fun () ->
      let client_ep, server_ep = Wedge_net.Chan.pair ~costs:Cost_model.free () in
      Wedge_sim.Fiber.spawn (fun () ->
          Wedge_httpd.Httpd_mitm.serve_connection ~spawn:W.Boot env server_ep);
      ignore
        (Wedge_httpd.Https_client.get ~rng:(Wedge_crypto.Drbg.create ~seed:1)
           ~pinned:env.Wedge_httpd.Httpd_env.priv.Wedge_crypto.Rsa.pub ~path:"/index.html"
           client_ep));
  let stats = k.Kernel.stats in
  check Alcotest.int "two sthreads per request (paper: two)" 2 (Stats.get stats "sthread_create");
  check Alcotest.int "seven callgates instantiated" 7 (Stats.get stats "cgate_add");
  check Alcotest.bool "six+ invocations (paper: eight/nine incl. repeats)" true
    (Stats.get stats "cgate" >= 6)

(* ---------- property tests: the subset rule never escalates ---------- *)

let grant_gen = QCheck.oneofl [ Prot.R; Prot.RW; Prot.COW ]

let prop_subset_rule_sound =
  QCheck.Test.make ~name:"children cannot exceed parent grants" ~count:100
    QCheck.(pair grant_gen grant_gen)
    (fun (parent_grant, child_grant) ->
      let _, _, main = mk_app () in
      let t = W.tag_new main in
      let sc_p = W.sc_create () in
      W.sc_mem_add sc_p t parent_grant;
      let outcome = ref `None in
      let h =
        W.sthread_create main sc_p
          (fun ctx _ ->
            let sc_c = W.sc_create () in
            W.sc_mem_add sc_c t child_grant;
            (match W.sthread_create ctx sc_c (fun _ _ -> 0) 0 with
            | _ -> outcome := `Allowed
            | exception W.Privilege_violation _ -> outcome := `Denied);
            0)
          0
      in
      ignore (W.sthread_join main h);
      let expected =
        if Prot.grant_subsumes ~parent:parent_grant ~child:child_grant then `Allowed else `Denied
      in
      !outcome = expected)

let prop_default_deny_total =
  QCheck.Test.make ~name:"an empty policy can read no tag, ever" ~count:40
    QCheck.(int_range 1 6)
    (fun ntags ->
      let _, _, main = mk_app () in
      let tags = List.init ntags (fun i -> W.tag_new ~name:(string_of_int i) main) in
      let addrs = List.map (fun t -> W.smalloc main 8 t) tags in
      let h =
        W.sthread_create main (W.sc_create ())
          (fun ctx _ ->
            List.for_all
              (fun a -> match W.read_u8 ctx a with _ -> false | exception Vm.Fault _ -> true)
              addrs
            |> fun all_denied -> if all_denied then 1 else 0)
          0
      in
      W.sthread_join main h = 1)

(* ---------- containment by construction ---------- *)

(* A recycled member whose entry raises anything — here a plain
   [Failure], a class the engine does not name — is discarded and
   respawned like a faulted one: the call returns -1 and the next call
   is served by the fresh member. *)
let test_recycled_failure_respawns () =
  let k, _, main = mk_app () in
  let calls = ref 0 in
  let sc = W.sc_create () in
  let gate =
    W.sc_cgate_add ~spawn:W.Recycle main sc ~name:"flaky"
      ~entry:(fun _ ~trusted:_ ~arg:_ ->
        incr calls;
        if !calls = 1 then failwith "member bug";
        7)
      ~cgsc:(W.sc_create ()) ~trusted:0
  in
  let call () =
    W.sthread_join main
      (W.sthread_create main sc (fun ctx _ -> W.cgate ctx gate ~perms:(W.sc_create ()) ~arg:0) 0)
  in
  check Alcotest.int "the failed call returns -1" (-1) (call ());
  check Alcotest.int "the member was respawned" 1
    (Stats.get k.Kernel.stats "cgate.recycled.respawn");
  check Alcotest.int "counted as unexpected" 1 (Stats.get k.Kernel.stats "fault.unexpected");
  check Alcotest.int "the next call is served" 7 (call ());
  check Alcotest.int "by the respawned member" 2 !calls

exception Checker_verdict

(* What compartment code raises but must not contain.  An exception from
   a harness hook — the syscall hook the oracle uses, the memory
   recorder's consumer — is a checker's verdict, not the compartment's
   fault, and a deadlock means the run is stuck: each must escape
   [Fiber.run]. *)
let test_harness_exceptions_escape () =
  let escapes what arm expect =
    let k, _, main = mk_app () in
    let sc, body = arm k main in
    match
      Wedge_sim.Fiber.run (fun () ->
          ignore (W.sthread_join main (W.sthread_create main sc body 0)))
    with
    | () -> Alcotest.failf "%s: contained by the compartment" what
    | exception e when expect e -> ()
    | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
  in
  let verdict = function Checker_verdict -> true | _ -> false in
  (* One verdict only: a hook still raising in the master after the
     compartment died would escape whatever the compartment did. *)
  let once () =
    let fired = ref false in
    fun _ ->
      if not !fired then begin
        fired := true;
        raise Checker_verdict
      end
  in
  escapes "syscall hook"
    (fun k _ ->
      ( W.sc_create (),
        fun ctx _ ->
          k.Kernel.on_syscall <- Some (once ());
          ignore (W.vfs_read ctx "/nope");
          0 ))
    verdict;
  escapes "memory recorder"
    (fun k _ ->
      ( W.sc_create (),
        fun ctx _ ->
          k.Kernel.mem_rec.Vm.sink <- Some (once ());
          ignore (W.read_u8 ctx Layout.heap_base);
          0 ))
    verdict;
  escapes "deadlock"
    (fun _ main ->
      (* A read from a channel nobody will ever write or close. *)
      let _peer, ep = Wedge_net.Chan.pair ~costs:Cost_model.free () in
      let fd = W.add_endpoint main (Wedge_net.Chan.to_endpoint ep) Fd_table.perm_rw in
      let sc = W.sc_create () in
      W.sc_fd_add sc fd Fd_table.perm_rw;
      ( sc,
        fun ctx _ ->
          ignore (W.fd_read ctx fd 1);
          0 ))
    (function Wedge_sim.Fiber.Deadlock _ -> true | _ -> false)

let qcheck tests = List.map Test_rng.to_alcotest tests

let () =
  Alcotest.run "wedge_engine_extra"
    [
      ( "capabilities",
        [
          Alcotest.test_case "gate cap passing" `Quick test_gate_cap_passing;
          Alcotest.test_case "gate cap not forgeable" `Quick test_gate_cap_not_forgeable;
        ] );
      ( "nesting",
        [
          Alcotest.test_case "three-level narrowing" `Quick test_three_level_narrowing;
          Alcotest.test_case "cow timeline" `Quick test_cow_child_sees_pre_creation_state_only;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "inherited by gates" `Quick test_instr_inherited_by_sthreads_and_gates;
          Alcotest.test_case "stack frames" `Quick test_stack_frames_nest_and_reuse;
          Alcotest.test_case "stack overflow" `Quick test_stack_overflow_detected;
        ] );
      ( "recycled-residue",
        [
          Alcotest.test_case "cross-principal leak (the §3.3 warning)" `Quick
            test_recycled_gate_leaks_across_principals;
        ] );
      ( "containment",
        [
          Alcotest.test_case "recycled failure respawns" `Quick test_recycled_failure_respawns;
          Alcotest.test_case "harness exceptions escape" `Quick test_harness_exceptions_escape;
        ] );
      ( "misc",
        [
          Alcotest.test_case "fork vs boundary vars" `Quick
            test_fork_inherits_boundary_vars_sthreads_dont;
          Alcotest.test_case "OOM catchable" `Quick test_smalloc_oom_catchable_in_compartment;
          Alcotest.test_case "file fd read/write" `Quick test_file_fd_read_write;
          Alcotest.test_case "file fd overwrite" `Quick test_file_fd_overwrite_mid_file;
          Alcotest.test_case "open respects perms" `Quick test_open_file_respects_vfs_perms;
          Alcotest.test_case "read-only fd write rejected" `Quick test_readonly_fd_write_rejected;
          Alcotest.test_case "write-only fd read rejected" `Quick test_writeonly_fd_read_rejected;
          Alcotest.test_case "bad fd_write_sub range" `Quick test_fd_write_sub_bad_range;
          Alcotest.test_case "pthread shares everything" `Quick test_pthread_shares_everything;
          Alcotest.test_case "exit codes" `Quick test_exit_sthread_code;
          Alcotest.test_case "per-request structure" `Quick test_mitm_request_structure;
        ] );
      ("properties", qcheck [ prop_subset_rule_sound; prop_default_deny_total ]);
    ]
