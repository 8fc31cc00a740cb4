(* Tests for the simulated machine and OS: physical memory, page tables,
   the VM layer (protection, COW), VFS permissions, fd tables, SELinux. *)

module Physmem = Wedge_kernel.Physmem
module Pagetable = Wedge_kernel.Pagetable
module Vm = Wedge_kernel.Vm
module Prot = Wedge_kernel.Prot
module Vfs = Wedge_kernel.Vfs
module Fd_table = Wedge_kernel.Fd_table
module Selinux = Wedge_kernel.Selinux
module Kernel = Wedge_kernel.Kernel
module Clock = Wedge_sim.Clock
module Cost_model = Wedge_sim.Cost_model
module Fault_plan = Wedge_fault.Fault_plan

let check = Alcotest.check

let ps = Physmem.page_size

(* Map [src]'s frame at [addr] into [dst] with [prot], as the engine maps
   a grant ([Vm.map_frame] takes the reference). *)
let share ~src ~dst ~addr ~prot =
  let pte = Option.get (Pagetable.find (Vm.page_table src) ~vpn:(addr / ps)) in
  Vm.map_frame dst ~addr ~frame:pte.Pagetable.frame ~prot ~tag:pte.Pagetable.tag

let mk_vm ?(pid = 1) () =
  let pm = Physmem.create () in
  (pm, Vm.create ~pid pm (Clock.create ()) Cost_model.free)

let expect_fault f =
  match f () with
  | _ -> Alcotest.fail "expected Vm.Fault"
  | exception Vm.Fault _ -> ()

(* ---------- Physmem ---------- *)

let test_physmem_alloc_zeroed () =
  let pm = Physmem.create () in
  let f = Physmem.alloc pm in
  let b = Physmem.get pm f in
  check Alcotest.int "page size" ps (Bytes.length b);
  check Alcotest.bool "zeroed" true (Bytes.for_all (fun c -> c = '\000') b)

let test_physmem_refcount () =
  let pm = Physmem.create () in
  let f = Physmem.alloc pm in
  Physmem.incref pm f;
  check Alcotest.int "refcount 2" 2 (Physmem.refcount pm f);
  Physmem.decref pm f;
  check Alcotest.int "still live" 1 (Physmem.refcount pm f);
  Physmem.decref pm f;
  check Alcotest.int "freed" 0 (Physmem.frames_in_use pm)

let test_physmem_reuse () =
  let pm = Physmem.create () in
  let f = Physmem.alloc pm in
  Bytes.set (Physmem.get_mut pm f) 0 'x';
  Physmem.decref pm f;
  let g = Physmem.alloc pm in
  check Alcotest.int "frame number reused" f g;
  check Alcotest.char "scrubbed on alloc" '\000' (Bytes.get (Physmem.get pm g) 0)

let test_physmem_dead_access () =
  let pm = Physmem.create () in
  let f = Physmem.alloc pm in
  Physmem.decref pm f;
  (match Physmem.get pm f with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  check Alcotest.bool "ok" true true

let test_physmem_growth () =
  let pm = Physmem.create () in
  let frames = List.init 300 (fun _ -> Physmem.alloc pm) in
  check Alcotest.int "300 in use" 300 (Physmem.frames_in_use pm);
  List.iter (fun f -> Physmem.decref pm f) frames;
  check Alcotest.int "all freed" 0 (Physmem.frames_in_use pm)

(* Demand-zero frames: a frame has host bytes only once written. *)
let test_physmem_demand_zero () =
  let pm = Physmem.create () in
  let f = Physmem.alloc pm in
  let g = Physmem.alloc pm in
  check Alcotest.bool "a fresh frame reads zero" true
    (Bytes.for_all (fun c -> c = '\000') (Physmem.get pm f));
  check Alcotest.int "and is not host-backed" 0 (Physmem.host_frames pm);
  let b = Physmem.get_mut pm f in
  Bytes.set b 0 'x';
  check Alcotest.int "the first write backs one frame" 1 (Physmem.host_frames pm);
  check Alcotest.char "that frame: the read view sees the write" 'x'
    (Bytes.get (Physmem.get pm f) 0);
  check Alcotest.bool "a later write view is the same bytes" true (Physmem.get_mut pm f == b);
  check Alcotest.char "the other frame still reads zero" '\000' (Bytes.get (Physmem.get pm g) 0);
  check Alcotest.int "still one frame host-backed" 1 (Physmem.host_frames pm);
  check Alcotest.int "both frames in use" 2 (Physmem.frames_in_use pm);
  Physmem.decref pm f;
  check Alcotest.int "freeing the frame drops its bytes" 0 (Physmem.host_frames pm);
  let f' = Physmem.alloc pm in
  check Alcotest.int "frame number reused" f f';
  check Alcotest.char "the reused frame reads zero" '\000' (Bytes.get (Physmem.get pm f') 0);
  check Alcotest.int "and is not host-backed" 0 (Physmem.host_frames pm);
  check Alcotest.bool "the zero page stayed zero" true (Physmem.zero_page_clean pm)

let test_physmem_scrub () =
  let pm = Physmem.create () in
  let f = Physmem.alloc pm in
  Physmem.scrub pm f;
  check Alcotest.int "scrubbing an unwritten frame backs nothing" 0
    (Physmem.host_frames pm);
  let b = Physmem.get_mut pm f in
  Bytes.blit_string "SECRET" 0 b 0 6;
  Physmem.scrub pm f;
  check Alcotest.bool "a written frame is zero-filled" true
    (Bytes.for_all (fun c -> c = '\000') b);
  check Alcotest.bool "in its own bytes" true (Physmem.get pm f == b);
  check Alcotest.bool "the zero page stayed zero" true (Physmem.zero_page_clean pm)

(* ---------- Vm: mapping, protection, COW ---------- *)

let test_vm_rw_roundtrip () =
  let _, vm = mk_vm () in
  Vm.map_fresh vm ~addr:0x1000 ~pages:2 ~prot:Prot.page_rw ~tag:None;
  Vm.write_u64 vm 0x1ffc 0x1122334455667788;
  (* crosses a page boundary *)
  check Alcotest.int "u64 across pages" 0x1122334455667788 (Vm.read_u64 vm 0x1ffc);
  Vm.write_bytes vm 0x1800 (Bytes.of_string "hello world");
  check Alcotest.string "bytes" "hello world" (Bytes.to_string (Vm.read_bytes vm 0x1800 11))

let test_vm_unmapped_faults () =
  let _, vm = mk_vm () in
  expect_fault (fun () -> Vm.read_u8 vm 0x5000);
  expect_fault (fun () -> Vm.write_u8 vm 0x5000 1)

let test_vm_readonly_faults_on_write () =
  let _, vm = mk_vm () in
  Vm.map_fresh vm ~addr:0x1000 ~pages:1 ~prot:(Prot.page_of_grant Prot.R) ~tag:None;
  check Alcotest.int "read ok" 0 (Vm.read_u8 vm 0x1000);
  expect_fault (fun () -> Vm.write_u8 vm 0x1000 7)

let test_vm_noread_faults () =
  let _, vm = mk_vm () in
  Vm.map_fresh vm ~addr:0x1000 ~pages:1 ~prot:Prot.page_none ~tag:None;
  expect_fault (fun () -> Vm.read_u8 vm 0x1000)

let test_vm_fault_is_partial_read_safe () =
  (* A bulk read that crosses into a forbidden page must fault, not return
     partial data. *)
  let _, vm = mk_vm () in
  Vm.map_fresh vm ~addr:0x1000 ~pages:1 ~prot:Prot.page_rw ~tag:None;
  Vm.map_fresh vm ~addr:0x2000 ~pages:1 ~prot:Prot.page_none ~tag:None;
  expect_fault (fun () -> Vm.read_bytes vm 0x1ff0 32)

(* [read_into] is [read_bytes] into the caller's buffer: the same bytes
   and the same recorded events; and a bad length or a range outside the
   buffer is refused before any translation or byte lands. *)
let test_vm_read_into () =
  let pm = Physmem.create () in
  let recorder = { Vm.sink = None; raised = None } in
  let vm = Vm.create ~recorder ~pid:1 pm (Clock.create ()) Cost_model.free in
  Vm.map_fresh vm ~addr:0x1000 ~pages:2 ~prot:Prot.page_rw ~tag:None;
  Vm.map_fresh vm ~addr:0x3000 ~pages:1 ~prot:Prot.page_none ~tag:None;
  Vm.write_bytes vm 0x1000 (Bytes.init (2 * ps) (fun i -> Char.chr ((i * 7) land 0xff)));
  let touched () = Vm.tlb_hits vm + Vm.tlb_misses vm in
  List.iter
    (fun pos ->
      for addr = 0x2000 - 12 to 0x2000 + 4 do
        let what = Printf.sprintf "0x%x into pos %d" addr pos in
        let buf = Bytes.make (pos + 8 + 2) '.' in
        Vm.read_into vm addr buf pos 8;
        check Alcotest.string what
          (String.make pos '.' ^ Bytes.to_string (Vm.read_bytes vm addr 8) ^ "..")
          (Bytes.to_string buf)
      done)
    [ 0; 3 ];
  let refused what exn f =
    let buf = Bytes.make 8 '.' in
    let before = touched () in
    (match f buf with
    | () -> Alcotest.failf "%s: not refused" what
    | exception e when exn e -> ()
    | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e));
    check Alcotest.string (what ^ ": buffer untouched") "........" (Bytes.to_string buf);
    check Alcotest.bool (what ^ ": no translation") true (touched () = before)
  in
  let is_fault = function Vm.Fault _ -> true | _ -> false in
  let is_invalid = function Invalid_argument _ -> true | _ -> false in
  refused "len < 0" is_fault (fun buf -> Vm.read_into vm 0x1000 buf 0 (-1));
  refused "len > max_read" is_fault (fun buf -> Vm.read_into vm 0x1000 buf 0 ((64 lsl 20) + 1));
  refused "pos < 0" is_invalid (fun buf -> Vm.read_into vm 0x1000 buf (-1) 4);
  refused "pos + len past the buffer" is_invalid (fun buf -> Vm.read_into vm 0x1000 buf 5 4);
  let buf = Bytes.make 8 '.' in
  let before = touched () in
  Vm.read_into vm 0x5000 buf 8 0;
  check Alcotest.bool "len 0 touches nothing, even unmapped" true (touched () = before);
  check Alcotest.string "len 0 writes nothing" "........" (Bytes.to_string buf);
  expect_fault (fun () -> Vm.read_into vm 0x5000 buf 0 4);
  expect_fault (fun () -> Vm.read_into vm 0x3000 buf 0 4);
  expect_fault (fun () -> Vm.read_into vm 0x2ffc buf 0 8);
  let events f =
    let got = ref [] in
    recorder.Vm.sink <- Some (fun e -> got := e :: !got);
    (try f () with Vm.Fault _ -> ());
    recorder.Vm.sink <- None;
    List.rev !got
  in
  List.iter
    (fun (addr, len) ->
      check Alcotest.bool
        (Printf.sprintf "0x%x, %d bytes: read_bytes' events" addr len)
        true
        (events (fun () -> ignore (Vm.read_bytes vm addr len))
        = events (fun () -> Vm.read_into vm addr (Bytes.create (max len 0 + 2)) 2 len)))
    [ (0x1ffc, 8); (0x1000, 0); (0x2ffc, 8); (0x5000, 4); (0x1000, -1) ]

let test_vm_cow_break_isolates () =
  let pm = Physmem.create () in
  let clock = Clock.create () in
  let vm1 = Vm.create ~pid:1 pm clock Cost_model.free in
  let vm2 = Vm.create ~pid:2 pm clock Cost_model.free in
  Vm.map_fresh vm1 ~addr:0x1000 ~pages:1 ~prot:Prot.page_rw ~tag:None;
  Vm.write_bytes vm1 0x1000 (Bytes.of_string "shared");
  (* Share the page COW into vm2. *)
  share ~src:vm1 ~dst:vm2 ~addr:0x1000 ~prot:Prot.page_cow;
  check Alcotest.string "vm2 sees data" "shared"
    (Bytes.to_string (Vm.read_bytes vm2 0x1000 6));
  Vm.write_bytes vm2 0x1000 (Bytes.of_string "child!");
  check Alcotest.string "vm2 sees its write" "child!"
    (Bytes.to_string (Vm.read_bytes vm2 0x1000 6));
  check Alcotest.string "vm1 unaffected" "shared"
    (Bytes.to_string (Vm.read_bytes vm1 0x1000 6))

let test_vm_cow_break_from_unwritten_frame () =
  let pm = Physmem.create () in
  let clock = Clock.create () in
  let vm1 = Vm.create ~pid:1 pm clock Cost_model.free in
  let vm2 = Vm.create ~pid:2 pm clock Cost_model.free in
  Vm.map_fresh vm1 ~addr:0x1000 ~pages:1 ~prot:Prot.page_rw ~tag:None;
  share ~src:vm1 ~dst:vm2 ~addr:0x1000 ~prot:Prot.page_cow;
  check Alcotest.int "nothing written yet" 0 (Physmem.host_frames pm);
  Vm.write_bytes vm2 0x1000 (Bytes.of_string "child!");
  check Alcotest.string "vm2 sees its write" "child!"
    (Bytes.to_string (Vm.read_bytes vm2 0x1000 6));
  check Alcotest.string "vm1 still reads zeros" (String.make 6 '\000')
    (Bytes.to_string (Vm.read_bytes vm1 0x1000 6));
  let frame vm = (Option.get (Pagetable.find (Vm.page_table vm) ~vpn:1)).Pagetable.frame in
  check Alcotest.bool "vm2 broke onto its own frame" true (frame vm1 <> frame vm2);
  check Alcotest.int "only the copy is host-backed" 1 (Physmem.host_frames pm);
  check Alcotest.bool "the zero page stayed zero" true (Physmem.zero_page_clean pm)

(* A TLB entry caches the frame, not its bytes: a frame first written
   through one address space is seen at once through another's warm
   entry, although that entry was filled while the frame still read
   through the zero page. *)
let test_vm_first_write_seen_through_warm_entry () =
  let pm = Physmem.create () in
  let clock = Clock.create () in
  let a = Vm.create ~pid:1 pm clock Cost_model.free in
  let b = Vm.create ~pid:2 pm clock Cost_model.free in
  Vm.map_fresh a ~addr:0x1000 ~pages:1 ~prot:Prot.page_rw ~tag:None;
  let frame = (Option.get (Pagetable.find (Vm.page_table a) ~vpn:1)).Pagetable.frame in
  Vm.map_frame b ~addr:0x1000 ~frame ~prot:(Prot.page_of_grant Prot.R) ~tag:None;
  check Alcotest.int "B reads the unwritten frame" 0 (Vm.read_u64 b 0x1000);
  let hits = Vm.tlb_hits b in
  Vm.write_u64 a 0x1000 42;
  check Alcotest.int "B's next read sees A's first write" 42 (Vm.read_u64 b 0x1000);
  check Alcotest.int "through its warm entry" (hits + 1) (Vm.tlb_hits b);
  check Alcotest.(list string) "B's TLB agrees with its page table" [] (Vm.tlb_check b)

let test_vm_cow_sole_owner_claims_in_place () =
  let pm, vm = mk_vm () in
  Vm.map_fresh vm ~addr:0x1000 ~pages:1 ~prot:Prot.page_cow ~tag:None;
  let before = Physmem.frames_in_use pm in
  Vm.write_u8 vm 0x1000 42;
  check Alcotest.int "no copy when refcount = 1" before (Physmem.frames_in_use pm);
  check Alcotest.int "write visible" 42 (Vm.read_u8 vm 0x1000)

let test_vm_cow_charges_cost () =
  let pm = Physmem.create () in
  let clock = Clock.create () in
  let vm1 = Vm.create ~pid:1 pm clock Cost_model.default in
  let vm2 = Vm.create ~pid:2 pm clock Cost_model.default in
  Vm.map_fresh vm1 ~addr:0x1000 ~pages:1 ~prot:Prot.page_rw ~tag:None;
  share ~src:vm1 ~dst:vm2 ~addr:0x1000 ~prot:Prot.page_cow;
  let t0 = Clock.now clock in
  Vm.write_u8 vm2 0x1000 1;
  check Alcotest.bool "COW break charged" true
    (Clock.now clock - t0 >= Cost_model.default.Cost_model.page_copy)

let test_vm_share_readonly_then_write_faults () =
  let pm = Physmem.create () in
  let clock = Clock.create () in
  let vm1 = Vm.create ~pid:1 pm clock Cost_model.free in
  let vm2 = Vm.create ~pid:2 pm clock Cost_model.free in
  Vm.map_fresh vm1 ~addr:0x1000 ~pages:1 ~prot:Prot.page_rw ~tag:None;
  share ~src:vm1 ~dst:vm2 ~addr:0x1000 ~prot:(Prot.page_of_grant Prot.R);
  expect_fault (fun () -> Vm.write_u8 vm2 0x1000 1)

let test_vm_unmap_releases_frames () =
  let pm, vm = mk_vm () in
  Vm.map_fresh vm ~addr:0x1000 ~pages:4 ~prot:Prot.page_rw ~tag:None;
  check Alcotest.int "4 frames" 4 (Physmem.frames_in_use pm);
  Vm.unmap_range vm ~addr:0x1000 ~pages:4;
  check Alcotest.int "freed" 0 (Physmem.frames_in_use pm);
  expect_fault (fun () -> Vm.read_u8 vm 0x1000)

let test_vm_destroy () =
  let pm, vm = mk_vm () in
  Vm.map_fresh vm ~addr:0x1000 ~pages:3 ~prot:Prot.page_rw ~tag:None;
  Vm.map_fresh vm ~addr:0x9000 ~pages:2 ~prot:(Prot.page_of_grant Prot.R) ~tag:None;
  Vm.destroy vm;
  check Alcotest.int "all frames released" 0 (Physmem.frames_in_use pm);
  check Alcotest.int "no mappings" 0 (Pagetable.count (Vm.page_table vm))

let test_vm_can_read_write_probes () =
  let _, vm = mk_vm () in
  Vm.map_fresh vm ~addr:0x1000 ~pages:1 ~prot:(Prot.page_of_grant Prot.R) ~tag:None;
  let can_read = Vm.For_testing.can_read vm in
  check Alcotest.bool "can_read" true (can_read ~addr:0x1000 ~len:16);
  expect_fault (fun () -> Vm.write_u8 vm 0x1000 0);
  check Alcotest.bool "unmapped" false (can_read ~addr:0x8000 ~len:1);
  check Alcotest.bool "crossing into unmapped" false (can_read ~addr:0x1ff0 ~len:32)

(* Random map/share/unmap/write sequences across three address spaces must
   never corrupt reference counts: destroying everything frees every
   frame. *)
let prop_refcount_invariant =
  QCheck.Test.make ~name:"frame refcounts survive random mapping traffic" ~count:60
    QCheck.(list_of_size Gen.(int_range 1 40) (pair (int_range 0 5) (int_range 0 15)))
    (fun ops ->
      let pm = Physmem.create () in
      let clock = Clock.create () in
      let vms = Array.init 3 (fun pid -> Vm.create ~pid pm clock Cost_model.free) in
      let mapped = Array.make 3 [] in
      List.iter
        (fun (op, page) ->
          let vm_i = page mod 3 in
          let vm = vms.(vm_i) in
          let addr = 0x10000 + (page * 4096) in
          match op with
          | 0 | 1 ->
              if not (List.mem addr mapped.(vm_i)) then begin
                Vm.map_fresh vm ~addr ~pages:1 ~prot:Prot.page_rw ~tag:None;
                mapped.(vm_i) <- addr :: mapped.(vm_i)
              end
          | 2 ->
              (* share from another vm if it has this page *)
              let src_i = (vm_i + 1) mod 3 in
              if List.mem addr mapped.(src_i) && not (List.mem addr mapped.(vm_i)) then begin
                share ~src:vms.(src_i) ~dst:vm ~addr ~prot:Prot.page_cow;
                mapped.(vm_i) <- addr :: mapped.(vm_i)
              end
          | 3 ->
              if List.mem addr mapped.(vm_i) then begin
                Vm.unmap_range vm ~addr ~pages:1;
                mapped.(vm_i) <- List.filter (fun a -> a <> addr) mapped.(vm_i)
              end
          | _ ->
              if List.mem addr mapped.(vm_i) then
                (* a write may trigger a COW break *)
                (try Vm.write_u8 vm addr 1 with Vm.Fault _ -> ()))
        ops;
      Array.iter Vm.destroy vms;
      Physmem.frames_in_use pm = 0)

(* ---------- Pagetable ---------- *)

let test_pagetable_double_map_rejected () =
  let pt = Pagetable.create () in
  Pagetable.map pt ~vpn:5 ~frame:1 ~prot:Prot.page_rw ~tag:None;
  (match Pagetable.map pt ~vpn:5 ~frame:2 ~prot:Prot.page_rw ~tag:None with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  check Alcotest.int "count" 1 (Pagetable.count pt)

let test_pagetable_unmap () =
  let pt = Pagetable.create () in
  Pagetable.map pt ~vpn:5 ~frame:1 ~prot:Prot.page_rw ~tag:(Some 3);
  (match Pagetable.unmap pt ~vpn:5 with
  | Some pte -> check Alcotest.int "frame" 1 pte.Pagetable.frame
  | None -> Alcotest.fail "expected pte");
  check Alcotest.bool "gone" false (Pagetable.mem pt ~vpn:5);
  check Alcotest.bool "unmap missing is None" true (Pagetable.unmap pt ~vpn:5 = None)

(* Two tables over one base: each sees the base through its own overlay,
   and nothing one does — a private rewrite, an unmap, a remap — reaches
   the base or the other table. *)
let test_pagetable_shared_base () =
  let entry frame = { Pagetable.frame; prot = Prot.page_cow; tag = None } in
  let base = Pagetable.base [| 1; 2; 3 |] [| entry 10; entry 20; entry 30 |] in
  let a = Pagetable.create () and b = Pagetable.create () in
  Pagetable.set_base a base;
  Pagetable.set_base b base;
  let seen pt =
    Pagetable.fold (fun vpn pte acc -> (vpn, pte.Pagetable.frame, pte.Pagetable.prot) :: acc) pt []
    |> List.sort compare
  in
  let original = seen b in
  check Alcotest.int "base visible" 3 (Pagetable.count a);
  (match Pagetable.find_private a ~vpn:1 with
  | Some pte ->
      pte.Pagetable.frame <- 11;
      pte.Pagetable.prot <- Prot.page_rw
  | None -> Alcotest.fail "base entry not found");
  check Alcotest.bool "private rewrite visible to its table" true
    (match Pagetable.find a ~vpn:1 with Some pte -> pte.Pagetable.frame = 11 | None -> false);
  check Alcotest.int "a copy is not a second mapping" 3 (Pagetable.count a);
  check Alcotest.bool "unmap through the base" true (Pagetable.unmap a ~vpn:2 <> None);
  check Alcotest.bool "unmapped vpn gone" false (Pagetable.mem a ~vpn:2);
  check Alcotest.bool "unmap of a private copy" true (Pagetable.unmap a ~vpn:1 <> None);
  check Alcotest.bool "copied vpn does not reappear" true (Pagetable.find a ~vpn:1 = None);
  Pagetable.map a ~vpn:2 ~frame:22 ~prot:(Prot.page_of_grant Prot.R) ~tag:None;
  check Alcotest.int "count after unmaps and a remap" 2 (Pagetable.count a);
  check Alcotest.bool "visible set" true
    (List.map (fun (v, f, _) -> (v, f)) (seen a) = [ (2, 22); (3, 30) ]);
  check Alcotest.bool "the other table sees the base unchanged" true (seen b = original);
  (match Pagetable.base_find base ~vpn:1 with
  | Some pte -> check Alcotest.int "base entry never written" 10 pte.Pagetable.frame
  | None -> Alcotest.fail "base lost an entry");
  check Alcotest.bool "second base refused" true
    (match Pagetable.set_base a base with
    | () -> false
    | exception Invalid_argument _ -> true);
  Pagetable.clear a;
  check Alcotest.int "clear drops overlay and base" 0 (Pagetable.count a);
  check Alcotest.int "base still whole" 3 (Pagetable.base_count base)

(* Image records for pages 1.. of [vm], each with the given protection:
   fresh records, since an image keeps the ones it is given. *)
let image_pages vm prots =
  List.map
    (fun (vpn, prot) ->
      let pte = Option.get (Pagetable.find (Vm.page_table vm) ~vpn) in
      { Pagetable.frame = pte.Pagetable.frame; prot; tag = None })
    prots

let image_of pm pages =
  Vm.image pm (Array.of_list (List.mapi (fun i _ -> i + 1) pages)) (Array.of_list pages)

(* A table over a base agrees with a naive model — an association list
   from vpn to (frame, own) — after random overlay maps, unmaps and
   private copies, probed at every vpn from below the base's first to
   above its last, runs and the gaps between them included, and so does
   the freeze's merge of it ([Pagetable.snapshot]).  Base vpns
   come in runs with gaps; base entry [v] maps frame [v], and an overlay
   map or a private rewrite gives a frame of 1,000 or more. *)
let prop_base_matches_model =
  let op = QCheck.(pair (int_range 0 2) (int_range 0 70)) in
  QCheck.Test.make ~name:"base agrees with a model" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 0 30) (int_range 0 64)) (list_of_size Gen.(int_range 0 40) op))
    (fun (vpns, ops) ->
      let vpns = List.sort_uniq compare vpns in
      let entry v = { Pagetable.frame = v; prot = Prot.page_cow; tag = None } in
      let base = Pagetable.base (Array.of_list vpns) (Array.of_list (List.map entry vpns)) in
      let pt = Pagetable.create () in
      Pagetable.set_base pt base;
      let model = ref (List.map (fun v -> (v, (v, false))) vpns) in
      let fresh = ref 1_000 in
      let agree = ref true in
      let expect b = if not b then agree := false in
      List.iter
        (fun (kind, vpn) ->
          match kind with
          | 0 ->
              incr fresh;
              let mapped = List.mem_assoc vpn !model in
              (match Pagetable.map pt ~vpn ~frame:!fresh ~prot:Prot.page_rw ~tag:None with
              | () -> expect (not mapped)
              | exception Invalid_argument _ -> expect mapped);
              if not mapped then model := (vpn, (!fresh, true)) :: !model
          | 1 ->
              let got = Option.map (fun pte -> pte.Pagetable.frame) (Pagetable.unmap pt ~vpn) in
              expect (got = Option.map fst (List.assoc_opt vpn !model));
              model := List.remove_assoc vpn !model
          | _ -> (
              incr fresh;
              match (Pagetable.find_private pt ~vpn, List.assoc_opt vpn !model) with
              | None, None -> ()
              | Some pte, Some (frame, _) ->
                  expect (pte.Pagetable.frame = frame);
                  pte.Pagetable.frame <- !fresh;
                  model := (vpn, (!fresh, true)) :: List.remove_assoc vpn !model
              | _ -> expect false))
        ops;
      for vpn = -1 to 72 do
        let m = List.assoc_opt vpn !model in
        expect (Option.map (fun pte -> pte.Pagetable.frame) (Pagetable.find pt ~vpn) = Option.map fst m);
        expect (Pagetable.mem pt ~vpn = (m <> None));
        expect (Pagetable.owns pt ~vpn = (match m with Some (_, own) -> own | None -> false));
        expect
          (Option.map (fun pte -> pte.Pagetable.frame) (Pagetable.base_find base ~vpn)
          = if List.mem vpn vpns then Some vpn else None)
      done;
      let sorted l = List.sort compare l in
      let want = sorted (List.map (fun (v, (f, _)) -> (v, f)) !model) in
      let seen = ref [] in
      Pagetable.iter (fun v pte -> seen := (v, pte.Pagetable.frame) :: !seen) pt;
      expect (sorted !seen = want);
      expect (sorted (Pagetable.fold (fun v pte acc -> (v, pte.Pagetable.frame) :: acc) pt []) = want);
      expect (Pagetable.count pt = List.length want);
      expect (Pagetable.base_count base = List.length vpns);
      (* The freeze's merge lists the same entries in vpn order, each
         copy-on-write: a base record it still sees is shared as it is,
         the table's own are copied. *)
      let svpns, sptes = Pagetable.snapshot pt ~prot:(fun _ -> Prot.page_cow) in
      expect (Array.to_list (Array.mapi (fun i v -> (v, sptes.(i).Pagetable.frame)) svpns) = want);
      Array.iteri
        (fun i v ->
          let pte = sptes.(i) in
          expect (pte.Pagetable.prot = Prot.page_cow);
          expect
            ((match Pagetable.base_find base ~vpn:v with Some b -> b == pte | None -> false)
            = not (Pagetable.owns pt ~vpn:v)))
        svpns;
      (* Private copies leave the base as built. *)
      List.iter
        (fun v ->
          expect
            (match Pagetable.base_find base ~vpn:v with
            | Some pte -> pte.Pagetable.frame = v
            | None -> false))
        vpns;
      (* A second probe pass finds every model vpn private after it. *)
      List.iter
        (fun (v, (frame, _)) ->
          expect
            (match Pagetable.find_private pt ~vpn:v with
            | Some pte -> pte.Pagetable.frame = frame && Pagetable.owns pt ~vpn:v
            | None -> false))
        !model;
      !agree)

(* A base is built from vpns that strictly increase: one listed twice or
   out of order is refused before the image takes a single frame
   reference. *)
let test_image_refuses_unsorted_vpns () =
  let pm, vm = mk_vm () in
  Vm.map_fresh vm ~addr:0x1000 ~pages:2 ~prot:Prot.page_rw ~tag:None;
  let pages = image_pages vm [ (1, Prot.page_cow); (2, Prot.page_cow) ] in
  let ptes = Array.of_list pages in
  let refs () = List.map (fun pte -> Physmem.refcount pm pte.Pagetable.frame) pages in
  List.iter
    (fun (what, vpns) ->
      check Alcotest.bool (what ^ " refused") true
        (match Vm.image pm vpns ptes with
        | _ -> false
        | exception Invalid_argument _ -> true);
      check Alcotest.(list int) (what ^ ": no reference taken") [ 1; 1 ] (refs ()))
    [ ("a vpn listed twice", [| 1; 1 |]); ("vpns out of order", [| 2; 1 |]); ("a short vpn array", [| 1 |]) ];
  let image = Vm.image pm [| 1; 2 |] ptes in
  check Alcotest.(list int) "in order: one reference each" [ 2; 2 ] (refs ());
  Vm.release_image image;
  Vm.destroy vm;
  check Alcotest.int "every frame released" 0 (Physmem.frames_in_use pm)

(* A refused mapping changes nothing: no frame reference, no frame, no
   charge. *)
let test_vm_refused_mapping_takes_nothing () =
  let pm = Physmem.create () in
  let clock = Clock.create () in
  let vm1 = Vm.create ~pid:1 pm clock Cost_model.default in
  let vm2 = Vm.create ~pid:2 pm clock Cost_model.default in
  Vm.map_fresh vm1 ~addr:0x1000 ~pages:1 ~prot:Prot.page_rw ~tag:None;
  share ~src:vm1 ~dst:vm2 ~addr:0x1000 ~prot:(Prot.page_of_grant Prot.R);
  let frame =
    match Pagetable.find (Vm.page_table vm1) ~vpn:1 with
    | Some pte -> pte.Pagetable.frame
    | None -> Alcotest.fail "unmapped"
  in
  let refused what f =
    let t0 = Clock.now clock and frames = Physmem.frames_in_use pm in
    (match f () with
    | () -> Alcotest.fail (what ^ ": expected Invalid_argument")
    | exception Invalid_argument _ -> ());
    check Alcotest.int (what ^ ": refcount unchanged") 2 (Physmem.refcount pm frame);
    check Alcotest.int (what ^ ": no frame allocated") frames (Physmem.frames_in_use pm);
    check Alcotest.int (what ^ ": nothing charged") t0 (Clock.now clock)
  in
  refused "map_frame" (fun () ->
      Vm.map_frame vm2 ~addr:0x1000 ~frame ~prot:(Prot.page_of_grant Prot.R) ~tag:None);
  refused "map_fresh" (fun () ->
      Vm.map_fresh vm2 ~addr:0x1000 ~pages:1 ~prot:Prot.page_rw ~tag:None);
  Vm.destroy vm1;
  Vm.destroy vm2;
  check Alcotest.int "every frame released" 0 (Physmem.frames_in_use pm)

(* Two address spaces restored from one image share its table and its
   frame references: the image holds one per page for all its users, a
   space's private copy of an entry takes its own, writes break onto
   private frames, and a protection change or an unmap in one is
   invisible to the other. *)
let test_vm_map_image_shares_one_table () =
  let pm, vm0 = mk_vm () in
  Vm.map_fresh vm0 ~addr:0x1000 ~pages:3 ~prot:Prot.page_rw ~tag:None;
  Vm.write_bytes vm0 0x1000 (Bytes.of_string "image");
  Vm.write_bytes vm0 0x3000 (Bytes.of_string "const");
  let pages = image_pages vm0 [ (1, Prot.page_cow); (2, Prot.page_cow); (3, Prot.page_of_grant Prot.R) ] in
  let image = image_of pm pages in
  Vm.destroy vm0;
  let clock = Clock.create () in
  let a = Vm.create ~pid:2 pm clock Cost_model.free in
  let b = Vm.create ~pid:3 pm clock Cost_model.free in
  Vm.map_image a image;
  Vm.map_image b image;
  let frame vpn = (List.nth pages (vpn - 1)).Pagetable.frame in
  let refs () = List.map (fun pte -> Physmem.refcount pm pte.Pagetable.frame) pages in
  check Alcotest.(list int) "one reference per frame, the image's" [ 1; 1; 1 ] (refs ());
  check Alcotest.int "the owner and two spaces hold the image" 3 (Vm.image_holders image);
  (* A private copy of an entry takes its own reference, so the COW
     break after it still finds the frame shared. *)
  Vm.set_page_prot a ~addr:0x1000 ~prot:Prot.page_cow;
  check Alcotest.int "set_page_prot: the copy takes a reference" 2
    (Physmem.refcount pm (frame 1));
  Vm.write_bytes a 0x1000 (Bytes.of_string "mine!");
  check Alcotest.int "the break drops the copy's reference" 1 (Physmem.refcount pm (frame 1));
  Vm.write_bytes a 0x2000 (Bytes.of_string "also");
  check Alcotest.int "a break straight from the table leaves the image's" 1
    (Physmem.refcount pm (frame 2));
  check Alcotest.string "writer sees its write" "mine!" (Bytes.to_string (Vm.read_bytes a 0x1000 5));
  check Alcotest.string "sibling reads the image" "image" (Bytes.to_string (Vm.read_bytes b 0x1000 5));
  Vm.set_page_prot a ~addr:0x3000 ~prot:Prot.page_none;
  check Alcotest.int "set_page_prot holds the frame" 2 (Physmem.refcount pm (frame 3));
  expect_fault (fun () -> Vm.read_u8 a 0x3000);
  check Alcotest.bool "protect stays private" true (Vm.For_testing.can_read b ~addr:0x3000 ~len:1);
  let before = refs () in
  Vm.unmap_range b ~addr:0x2000 ~pages:1;
  check Alcotest.(list int) "unmapping a base page moves no refcount" before (refs ());
  expect_fault (fun () -> Vm.read_u8 b 0x2000);
  check Alcotest.int "unmap stays private" 3 (Pagetable.count (Vm.page_table a));
  (match Pagetable.base_find (Vm.image_table image) ~vpn:1 with
  | Some pte ->
      check Alcotest.int "image entry keeps its frame" (frame 1) pte.Pagetable.frame;
      check Alcotest.bool "and its protection" true (pte.Pagetable.prot = Prot.page_cow)
  | None -> Alcotest.fail "image lost a page");
  check Alcotest.bool "a second install is refused" true
    (match Vm.map_image a image with () -> false | exception Invalid_argument _ -> true);
  check Alcotest.int "and adds no holder" 3 (Vm.image_holders image);
  Vm.destroy a;
  Vm.destroy b;
  check Alcotest.int "a reap drops its holder" 1 (Vm.image_holders image);
  check Alcotest.(list int) "and its own references only" [ 1; 1; 1 ] (refs ());
  Vm.release_image image;
  check Alcotest.bool "a second release is refused" true
    (match Vm.release_image image with () -> false | exception Invalid_argument _ -> true);
  check Alcotest.int "every frame released" 0 (Physmem.frames_in_use pm)

(* The image's frames live as long as any holder: they die with the last,
   whether the owner releases the image before the last space that maps
   it is torn down or after. *)
let test_vm_image_frames_die_with_last_holder () =
  List.iter
    (fun discard_first ->
      let what = if discard_first then "discard then reap" else "reap then discard" in
      let pm, vm0 = mk_vm () in
      Vm.map_fresh vm0 ~addr:0x1000 ~pages:2 ~prot:Prot.page_rw ~tag:None;
      let pages = image_pages vm0 [ (1, Prot.page_cow); (2, Prot.page_cow) ] in
      let image = image_of pm pages in
      Vm.destroy vm0;
      let a = Vm.create ~pid:2 pm (Clock.create ()) Cost_model.free in
      Vm.map_image a image;
      Vm.write_u8 a 0x1000 7;
      Vm.unmap_range a ~addr:0x2000 ~pages:1;
      check Alcotest.int (what ^ ": two image frames and a private one") 3
        (Physmem.frames_in_use pm);
      if discard_first then Vm.release_image image else Vm.destroy a;
      check Alcotest.int (what ^ ": one holder left") 1 (Vm.image_holders image);
      check Alcotest.int (what ^ ": the image's frames outlive the first") 2
        (List.length
           (List.filter (fun pte -> Physmem.refcount pm pte.Pagetable.frame = 1) pages));
      if discard_first then Vm.destroy a else Vm.release_image image;
      check Alcotest.int (what ^ ": no holder left") 0 (Vm.image_holders image);
      check Alcotest.int (what ^ ": every frame dies with the last") 0 (Physmem.frames_in_use pm);
      check Alcotest.bool (what ^ ": a released image cannot be mapped") true
        (match Vm.map_image (Vm.create ~pid:3 pm (Clock.create ()) Cost_model.free) image with
        | () -> false
        | exception Invalid_argument _ -> true))
    [ true; false ]

(* ---------- Prot ---------- *)

let test_prot_subsumption () =
  let open Prot in
  check Alcotest.bool "rw > r" true (grant_subsumes ~parent:RW ~child:R);
  check Alcotest.bool "rw > cow" true (grant_subsumes ~parent:RW ~child:COW);
  check Alcotest.bool "r < rw" false (grant_subsumes ~parent:R ~child:RW);
  check Alcotest.bool "cow < rw" false (grant_subsumes ~parent:COW ~child:RW);
  check Alcotest.bool "r > cow" true (grant_subsumes ~parent:R ~child:COW);
  check Alcotest.bool "cow > r" true (grant_subsumes ~parent:COW ~child:R)

(* ---------- Vfs ---------- *)

let mk_vfs () =
  let v = Vfs.create () in
  Vfs.mkdir_p v "/etc";
  Vfs.install v ~uid:0 ~mode:0o600 "/etc/shadow" "root:hash";
  Vfs.install v ~uid:0 ~mode:0o644 "/etc/motd" "welcome";
  Vfs.mkdir_p v ~uid:1000 ~mode:0o755 "/home/alice";
  Vfs.install v ~uid:1000 ~mode:0o600 "/home/alice/secret" "alice-data";
  v

let test_vfs_read_modes () =
  let v = mk_vfs () in
  check Alcotest.bool "root reads shadow" true
    (Vfs.read_file v ~root:"/" ~uid:0 "/etc/shadow" = Ok "root:hash");
  check Alcotest.bool "user denied shadow" true
    (Vfs.read_file v ~root:"/" ~uid:1000 "/etc/shadow" = Error Vfs.Eacces);
  check Alcotest.bool "user reads motd" true
    (Vfs.read_file v ~root:"/" ~uid:1000 "/etc/motd" = Ok "welcome");
  check Alcotest.bool "owner reads own" true
    (Vfs.read_file v ~root:"/" ~uid:1000 "/home/alice/secret" = Ok "alice-data");
  check Alcotest.bool "other denied" true
    (Vfs.read_file v ~root:"/" ~uid:1001 "/home/alice/secret" = Error Vfs.Eacces)

let test_vfs_chroot_confines () =
  let v = mk_vfs () in
  Vfs.mkdir_p v "/jail";
  Vfs.install v "/jail/etc/motd" "jailed";
  check Alcotest.bool "resolves inside jail" true
    (Vfs.read_file v ~root:"/jail" ~uid:1000 "/etc/motd" = Ok "jailed");
  check Alcotest.bool "host shadow invisible" true
    (Vfs.read_file v ~root:"/jail" ~uid:0 "/etc/shadow" = Error Vfs.Enoent)

let test_vfs_empty_chroot () =
  let v = mk_vfs () in
  Vfs.mkdir_p v "/var/empty";
  check Alcotest.bool "nothing there" true
    (Vfs.read_file v ~root:"/var/empty" ~uid:99 "/etc/motd" = Error Vfs.Enoent)

let test_vfs_write_and_append () =
  let v = mk_vfs () in
  check Alcotest.bool "create" true (Vfs.write_file v ~root:"/" ~uid:0 "/etc/new" "a" = Ok ());
  check Alcotest.bool "overwrite" true (Vfs.write_file v ~root:"/" ~uid:0 "/etc/new" "ab" = Ok ());
  check Alcotest.bool "contents" true (Vfs.read_file v ~root:"/" ~uid:0 "/etc/new" = Ok "ab");
  check Alcotest.bool "non-owner write denied" true
    (Vfs.write_file v ~root:"/" ~uid:1000 "/etc/motd" "x" = Error Vfs.Eacces)

let test_vfs_readdir_and_unlink () =
  let v = mk_vfs () in
  (match Vfs.readdir v ~root:"/" ~uid:0 "/etc" with
  | Ok l -> check (Alcotest.list Alcotest.string) "listing" [ "motd"; "shadow" ] l
  | Error _ -> Alcotest.fail "readdir failed");
  check Alcotest.bool "unlink" true (Vfs.unlink v ~root:"/" ~uid:0 "/etc/motd" = Ok ());
  check Alcotest.bool "gone" true (Vfs.read_file v ~root:"/" ~uid:0 "/etc/motd" = Error Vfs.Enoent)

(* [resolve] walks the root, then the path, a component at a time; it
   must agree with splitting both at '/' (dropping "" and "."), joining
   the lists and walking that from the top: "//", "./", a trailing '/',
   "" and "/" name what their canonical forms name, a chroot root is
   walked first whatever its spelling, and ".." is an entry name like
   any other — here a directory installed under /jail, never /jail's
   parent.  Read through [read_file] against a model of the tree. *)
let test_vfs_resolve_agrees_with_split () =
  let v = mk_vfs () in
  Vfs.install v "/jail/etc/motd" "jailed";
  Vfs.install v "/jail/../loot" "dotdot";
  Vfs.mkdir_p v "/jail/bin";
  Vfs.mkdir_p v "/var/empty";
  let split p = String.split_on_char '/' p |> List.filter (fun c -> c <> "" && c <> ".") in
  let files =
    List.map
      (fun (p, d) -> (split p, d))
      [
        ("/etc/shadow", "root:hash");
        ("/etc/motd", "welcome");
        ("/home/alice/secret", "alice-data");
        ("/jail/etc/motd", "jailed");
        ("/jail/../loot", "dotdot");
      ]
  in
  let rec is_prefix a b =
    match (a, b) with
    | [], _ -> true
    | x :: a, y :: b -> x = y && is_prefix a b
    | _ :: _, [] -> false
  in
  let is_dir parts =
    List.exists (fun (f, _) -> is_prefix parts f && parts <> f) files
    || List.exists (is_prefix parts) [ split "/jail/bin"; split "/var/empty" ]
  in
  (* The split-based walk: the longest existing prefix decides. *)
  let reference root path =
    let rec go seen = function
      | [] -> (
          match List.assoc_opt (List.rev seen) files with
          | Some d -> Ok d
          | None -> Error Vfs.Eisdir)
      | c :: rest ->
          let here = List.rev (c :: seen) in
          if List.mem_assoc here files && rest <> [] then Error Vfs.Enotdir
          else if List.mem_assoc here files || is_dir here then go (c :: seen) rest
          else Error Vfs.Enoent
    in
    go [] (split root @ split path)
  in
  let roots =
    [ "/"; ""; "//"; "/jail"; "/jail/"; "//jail//"; "./jail/."; "/jail/.."; "/var/empty";
      "/etc/motd"; "/nope" ]
  in
  let paths =
    [
      ""; "/"; "//"; "."; "./"; "/etc/motd"; "etc/motd"; "//etc//motd"; "/./etc/./motd";
      "/etc/motd/"; "/etc/"; "/etc"; "/etc/motd/x"; ".."; "../loot"; "/../loot";
      "/jail/../loot"; "../etc/shadow"; "/home//alice/./secret/"; "/nope/x"; "/etc/nope";
    ]
  in
  let error_to_string = function
    | Vfs.Enoent -> "no such file or directory"
    | Vfs.Eacces -> "permission denied"
    | Vfs.Enotdir -> "not a directory"
    | Vfs.Eisdir -> "is a directory"
    | Vfs.Eexist -> "file exists"
  in
  let res r = Result.map_error error_to_string r in
  List.iter
    (fun root ->
      List.iter
        (fun path ->
          check
            Alcotest.(result string string)
            (Printf.sprintf "root %S, path %S" root path)
            (res (reference root path))
            (res (Vfs.read_file v ~root ~uid:0 path)))
        paths)
    roots;
  (* Creating and unlinking find the last named component's directory
     the same way. *)
  let expect name want got = check Alcotest.(result unit string) name want (res got) in
  expect "create under a spelled-out chroot" (Ok ())
    (Vfs.write_file v ~root:"//jail/" ~uid:0 "./etc/./new/" "n");
  check Alcotest.bool "created where its canonical path names" true
    (Vfs.read_file v ~root:"/" ~uid:0 "/jail/etc/new" = Ok "n");
  expect "create in the \"..\" entry" (Ok ()) (Vfs.write_file v ~root:"/jail" ~uid:0 "../new" "m");
  check Alcotest.bool "beside loot" true (Vfs.read_file v ~root:"/jail/.." ~uid:0 "new" = Ok "m");
  expect "no parent" (Error "no such file or directory")
    (Vfs.write_file v ~root:"/" ~uid:0 "/nope/new" "x");
  expect "file as parent" (Error "not a directory")
    (Vfs.write_file v ~root:"/etc/motd" ~uid:0 "new" "x");
  expect "unlink, spelled out" (Ok ()) (Vfs.unlink v ~root:"/jail/." ~uid:0 "./etc//motd/");
  check Alcotest.bool "unlinked" true
    (Vfs.read_file v ~root:"/" ~uid:0 "/jail/etc/motd" = Error Vfs.Enoent);
  expect "unlink nothing" (Error "is a directory") (Vfs.unlink v ~root:"/" ~uid:0 "/")

(* ---------- Fd_table ---------- *)

let test_fd_perm_subsumption () =
  let open Fd_table in
  check Alcotest.bool "rw > r" true (perm_subsumes ~parent:perm_rw ~child:perm_r);
  check Alcotest.bool "r < w" false (perm_subsumes ~parent:perm_r ~child:perm_w);
  check Alcotest.bool "r = r" true (perm_subsumes ~parent:perm_r ~child:perm_r)

let test_fd_dup_reduces_only () =
  let src = Fd_table.create () in
  let dst = Fd_table.create () in
  let fd = Fd_table.add src (Probe.endpoint ()) Fd_table.perm_r in
  (match Fd_table.dup_into ~src ~dst ~fd ~perm:Fd_table.perm_rw with
  | _ -> Alcotest.fail "expected escalation rejection"
  | exception Invalid_argument _ -> ());
  Fd_table.dup_into ~src ~dst ~fd ~perm:Fd_table.perm_r;
  check Alcotest.int "dst has one fd" 1 (Fd_table.count dst)

let test_fd_close_independent () =
  let src = Fd_table.create () in
  let dst = Fd_table.create () in
  let fd = Fd_table.add src (Probe.endpoint ()) Fd_table.perm_rw in
  Fd_table.dup_into ~src ~dst ~fd ~perm:Fd_table.perm_rw;
  Fd_table.close dst fd;
  check Alcotest.bool "src still open" true (Fd_table.find src fd <> None);
  check Alcotest.bool "dst closed" true (Fd_table.find dst fd = None)

(* ---------- Selinux ---------- *)

let test_selinux_domain_policy () =
  let se = Selinux.create () in
  Selinux.allow se ~domain:"worker_t" ~syscall:"read";
  check Alcotest.bool "allowed" true (Selinux.check se ~sid:"u:r:worker_t" ~syscall:"read");
  check Alcotest.bool "denied other call" false
    (Selinux.check se ~sid:"u:r:worker_t" ~syscall:"open");
  (* A domain with no entry makes any call, as the paper's applications
     grant all system calls (§5). *)
  check Alcotest.bool "unknown domain unrestricted" true
    (Selinux.check se ~sid:"u:r:other_t" ~syscall:"read")

let test_selinux_transitions () =
  let se = Selinux.create () in
  check Alcotest.bool "identity ok" true
    (Selinux.may_transition se ~from_:"u:r:a_t" ~to_:"u:r:a_t");
  check Alcotest.bool "unknown denied" false
    (Selinux.may_transition se ~from_:"u:r:a_t" ~to_:"u:r:b_t");
  Selinux.allow_transition se ~from_:"a_t" ~to_:"b_t";
  check Alcotest.bool "explicit allowed" true
    (Selinux.may_transition se ~from_:"u:r:a_t" ~to_:"u:r:b_t")

(* ---------- Kernel ---------- *)

let test_kernel_process_lifecycle () =
  let k = Kernel.create () in
  let p = Kernel.new_process k ~kind:Wedge_kernel.Process.Sthread ~uid:33 ~root:"/" ~sid:"u:r:t" () in
  check Alcotest.bool "found" true (Kernel.find_process k p.Wedge_kernel.Process.pid <> None);
  check Alcotest.int "live" 1 (Kernel.live_processes k);
  p.Wedge_kernel.Process.status <- Wedge_kernel.Process.Exited 0;
  Kernel.reap k p;
  check Alcotest.bool "reaped" true (Kernel.find_process k p.Wedge_kernel.Process.pid = None)

let test_kernel_syscall_denial () =
  let k = Kernel.create () in
  let se = k.Kernel.selinux in
  Selinux.allow se ~domain:"locked_t" ~syscall:"read";
  let p = Kernel.new_process k ~kind:Wedge_kernel.Process.Sthread ~uid:33 ~root:"/" ~sid:"u:r:locked_t" () in
  Kernel.syscall_check k p "read";
  (match Kernel.syscall_check k p "open" with
  | _ -> Alcotest.fail "expected Eperm"
  | exception Kernel.Eperm _ -> ());
  check Alcotest.bool "ok" true true

let test_kernel_trap_charges () =
  let k = Kernel.create () in
  let p = Kernel.new_process k ~kind:Wedge_kernel.Process.Sthread ~uid:33 ~root:"/" ~sid:"u:r:t" () in
  let t0 = Clock.now k.Kernel.clock in
  Kernel.syscall_check k p "test";
  check Alcotest.bool "charged" true
    (Clock.now k.Kernel.clock - t0 = Cost_model.default.Cost_model.syscall_trap)

(* ---------- Software TLB: fast path correctness and shootdown ---------- *)

let mk_vm_costed () =
  let pm = Physmem.create () in
  let clock = Clock.create () in
  (pm, clock, Vm.create ~pid:1 pm clock Cost_model.default)

let test_tlb_counters () =
  let _, vm = mk_vm () in
  Vm.map_fresh vm ~addr:0x1000 ~pages:2 ~prot:Prot.page_rw ~tag:None;
  ignore (Vm.read_u8 vm 0x1000);
  check Alcotest.int "first access misses" 1 (Vm.tlb_misses vm);
  ignore (Vm.read_u8 vm 0x1004);
  ignore (Vm.read_u8 vm 0x1008);
  check Alcotest.int "subsequent accesses hit" 2 (Vm.tlb_hits vm);
  check Alcotest.int "no further misses" 1 (Vm.tlb_misses vm);
  (* Bulk accesses on a warm TLB translate once per page touched; a
     multi-page write probes every page, then copies. *)
  ignore (Vm.read_u8 vm 0x2000);
  List.iter
    (fun (what, want, access) ->
      let h0 = Vm.tlb_hits vm in
      access ();
      check Alcotest.int (what ^ ": hits") want (Vm.tlb_hits vm - h0))
    [
      ("read_u64", 1, fun () -> ignore (Vm.read_u64 vm 0x1010));
      ("write_u64", 1, fun () -> Vm.write_u64 vm 0x1010 7);
      ("aligned 4 KiB read_bytes", 1, fun () -> ignore (Vm.read_bytes vm 0x1000 4096));
      ("straddling 4 KiB read_bytes", 2, fun () -> ignore (Vm.read_bytes vm 0x1800 4096));
      ("straddling 4 KiB write_bytes", 4, fun () -> Vm.write_bytes vm 0x1800 (Bytes.create 4096));
    ];
  check Alcotest.int "bulk accesses never miss a warm TLB" 2 (Vm.tlb_misses vm)

let test_tlb_protect_revokes_immediately () =
  (* The security invariant of the whole cache: a permissions downgrade
     must be visible to the very next access, warm entry or not. *)
  let _, vm = mk_vm () in
  Vm.map_fresh vm ~addr:0x1000 ~pages:1 ~prot:Prot.page_rw ~tag:None;
  Vm.write_u8 vm 0x1000 42;
  Vm.write_u8 vm 0x1001 43;
  (* warm, write-capable *)
  Vm.set_page_prot vm ~addr:0x1000 ~prot:(Prot.page_of_grant Prot.R);
  expect_fault (fun () -> Vm.write_u8 vm 0x1002 44);
  check Alcotest.int "reads still allowed" 42 (Vm.read_u8 vm 0x1000);
  check Alcotest.bool "shootdown counted" true (Vm.tlb_shootdowns vm >= 1)

let test_tlb_unmap_revokes_immediately () =
  let _, vm = mk_vm () in
  Vm.map_fresh vm ~addr:0x1000 ~pages:1 ~prot:Prot.page_rw ~tag:None;
  ignore (Vm.read_u8 vm 0x1000);
  (* warm *)
  Vm.unmap_range vm ~addr:0x1000 ~pages:1;
  expect_fault (fun () -> Vm.read_u8 vm 0x1000)

(* Every slot of a new address space starts at one shared invalid
   entry, so a fill must store a fresh entry in its slot and never write
   through what the slot holds.  A fills slot [x land 63] with a frame
   holding 42; B maps only [x + 64], which lands in the same slot, and
   its page-table epoch is then the one A filled at.  B still has no
   translation for [x]. *)
let test_tlb_fresh_space_serves_no_other () =
  let pm = Physmem.create () in
  let clock = Clock.create () in
  let a = Vm.create ~pid:1 pm clock Cost_model.free in
  let b = Vm.create ~pid:2 pm clock Cost_model.free in
  let x = 0x10 in
  Vm.map_fresh a ~addr:(x * ps) ~pages:1 ~prot:Prot.page_rw ~tag:None;
  Vm.write_u8 a (x * ps) 42;
  check Alcotest.int "A reads its byte" 42 (Vm.read_u8 a (x * ps));
  Vm.map_fresh b ~addr:((x + 64) * ps) ~pages:1 ~prot:Prot.page_rw ~tag:None;
  check Alcotest.int "B's epoch is A's at fill time" (Pagetable.epoch (Vm.page_table a))
    (Pagetable.epoch (Vm.page_table b));
  (match Vm.read_u8 b (x * ps) with
  | v -> Alcotest.failf "B read %d through a translation it never had" v
  | exception Vm.Fault f -> check Alcotest.string "B's read of x faults" "unmapped page" f.Vm.reason);
  check Alcotest.int "B reads its own zeroed page" 0 (Vm.read_u8 b ((x + 64) * ps));
  check Alcotest.int "A still reads its byte" 42 (Vm.read_u8 a (x * ps))

let test_tlb_destroy_flushes () =
  let pm, vm = mk_vm () in
  Vm.map_fresh vm ~addr:0x1000 ~pages:2 ~prot:Prot.page_rw ~tag:None;
  ignore (Vm.read_u8 vm 0x1000);
  ignore (Vm.read_u8 vm 0x2000);
  Vm.destroy vm;
  check Alcotest.int "frames released" 0 (Physmem.frames_in_use pm);
  expect_fault (fun () -> Vm.read_u8 vm 0x1000)

let test_tlb_stale_entry_cannot_corrupt_snapshot () =
  (* The boot/fork pattern: a page is downgraded to COW in place (no
     map/unmap, so no epoch movement) while another address space shares
     the frame.  A stale write-capable TLB entry would let the writer
     scribble on the shared snapshot frame; the shootdown in
     set_page_prot forces the write through the slow path, which breaks
     COW into a private copy. *)
  let pm, vm = mk_vm () in
  Vm.map_fresh vm ~addr:0x1000 ~pages:1 ~prot:Prot.page_rw ~tag:None;
  Vm.write_u8 vm 0x1000 65;
  (* warms a write-capable entry *)
  let vm2 = Vm.create ~pid:2 pm (Clock.create ()) Cost_model.free in
  share ~src:vm ~dst:vm2 ~addr:0x1000 ~prot:(Prot.page_of_grant Prot.R);
  Vm.set_page_prot vm ~addr:0x1000 ~prot:Prot.page_cow;
  Vm.write_u8 vm 0x1000 66;
  check Alcotest.int "writer sees its write" 66 (Vm.read_u8 vm 0x1000);
  check Alcotest.int "shared snapshot untouched" 65 (Vm.read_u8 vm2 0x1000)

let test_tlb_cow_breaks_exactly_once () =
  (* Write through a cached read entry: the first write must break COW
     (one page_copy, one fresh frame, old frame's refcount drops); the
     second write must ride the refilled entry and charge nothing close
     to a copy. *)
  let pm, _, vm1 = mk_vm_costed () in
  Vm.map_fresh vm1 ~addr:0x1000 ~pages:1 ~prot:Prot.page_rw ~tag:None;
  Vm.write_u8 vm1 0x1000 1;
  let clock2 = Clock.create () in
  let vm2 = Vm.create ~pid:2 pm clock2 Cost_model.default in
  share ~src:vm1 ~dst:vm2 ~addr:0x1000 ~prot:Prot.page_cow;
  let frame =
    match Pagetable.find (Vm.page_table vm1) ~vpn:1 with
    | Some pte -> pte.Pagetable.frame
    | None -> Alcotest.fail "unmapped"
  in
  check Alcotest.int "frame shared" 2 (Physmem.refcount pm frame);
  ignore (Vm.read_u8 vm2 0x1000);
  (* caches a read-capable entry *)
  let frames0 = Physmem.frames_in_use pm in
  Vm.write_u8 vm2 0x1000 2;
  check Alcotest.int "one fresh frame after break" (frames0 + 1) (Physmem.frames_in_use pm);
  check Alcotest.int "old frame refcount dropped" 1 (Physmem.refcount pm frame);
  let t0 = Clock.now clock2 in
  Vm.write_u8 vm2 0x1001 3;
  check Alcotest.bool "second write does not copy again" true
    (Clock.now clock2 - t0 < Cost_model.default.Cost_model.page_copy);
  check Alcotest.int "still one fresh frame" (frames0 + 1) (Physmem.frames_in_use pm);
  check Alcotest.int "parent unaffected" 1 (Vm.read_u8 vm1 0x1000)

let test_probe_is_advisory () =
  (* a probe answers a question: no cost, no TLB traffic. *)
  let _, clock, vm = mk_vm_costed () in
  Vm.map_fresh vm ~addr:0x1000 ~pages:1 ~prot:(Prot.page_of_grant Prot.R) ~tag:None;
  let t0 = Clock.now clock in
  check Alcotest.bool "can read" true (Vm.For_testing.can_read vm ~addr:0x1000 ~len:16);
  check Alcotest.int "no cost charged" t0 (Clock.now clock);
  check Alcotest.int "no TLB traffic" 0 (Vm.tlb_misses vm + Vm.tlb_hits vm)

(* ---------- 63-bit u64 semantics and page-boundary atomicity ---------- *)

let test_u64_63bit_roundtrip () =
  let _, vm = mk_vm () in
  Vm.map_fresh vm ~addr:0x1000 ~pages:2 ~prot:Prot.page_rw ~tag:None;
  List.iter
    (fun v ->
      Vm.write_u64 vm 0x1000 v;
      check Alcotest.int "within-page roundtrip" v (Vm.read_u64 vm 0x1000);
      Vm.write_u64 vm 0x1ffc v;
      check Alcotest.int "page-crossing roundtrip" v (Vm.read_u64 vm 0x1ffc))
    [ 0; 1; -1; max_int; min_int; 0xdeadbeef; 0x1122334455667788 ];
  (* The stored word zero-extends the 63-bit pattern: bit 63 clear even
     for negative values, so byte layouts are canonical. *)
  Vm.write_u64 vm 0x1000 (-1);
  check Alcotest.int "top stored byte is 0x7f" 0x7f (Vm.read_u8 vm 0x1007)

let test_boundary_second_page_unmapped () =
  let _, vm = mk_vm () in
  Vm.map_fresh vm ~addr:0x1000 ~pages:1 ~prot:Prot.page_rw ~tag:None;
  (* Reads crossing into the void fault... *)
  expect_fault (fun () -> ignore (Vm.read_u32 vm 0x1ffe));
  expect_fault (fun () -> ignore (Vm.read_u64 vm 0x1ffc));
  (* ...and writes crossing fault WITHOUT touching the mapped page. *)
  Vm.write_u8 vm 0x1ffe 0xab;
  Vm.write_u8 vm 0x1fff 0xcd;
  expect_fault (fun () -> Vm.write_u32 vm 0x1ffe 0xffffffff);
  expect_fault (fun () -> Vm.write_u64 vm 0x1ffc 42);
  check Alcotest.int "first page intact (byte 1)" 0xab (Vm.read_u8 vm 0x1ffe);
  check Alcotest.int "first page intact (byte 2)" 0xcd (Vm.read_u8 vm 0x1fff)

let test_blit_across_readonly_page_is_atomic () =
  let _, vm = mk_vm () in
  Vm.map_fresh vm ~addr:0x1000 ~pages:1 ~prot:Prot.page_rw ~tag:None;
  Vm.map_fresh vm ~addr:0x2000 ~pages:1 ~prot:(Prot.page_of_grant Prot.R) ~tag:None;
  Vm.write_bytes vm 0x1ff0 (Bytes.of_string "SENTINEL00000000");
  (* 32-byte write straddling into the read-only page must fault and must
     not have dirtied the writable half first. *)
  expect_fault (fun () -> Vm.write_bytes vm 0x1ff0 (Bytes.make 32 'X'));
  check Alcotest.string "writable half untouched" "SENTINEL00000000"
    (Bytes.to_string (Vm.read_bytes vm 0x1ff0 16))

let test_pagetable_epoch_moves_on_structural_change () =
  let pt = Pagetable.create () in
  let e0 = Pagetable.epoch pt in
  Pagetable.map pt ~vpn:1 ~frame:0 ~prot:Prot.page_rw ~tag:None;
  check Alcotest.bool "map advances epoch" true (Pagetable.epoch pt > e0);
  let e1 = Pagetable.epoch pt in
  ignore (Pagetable.find pt ~vpn:1);
  (match Pagetable.find pt ~vpn:1 with
  | Some pte -> pte.Pagetable.prot <- (Prot.page_of_grant Prot.R)
  | None -> Alcotest.fail "unmapped");
  check Alcotest.int "find / in-place mutation do not" e1 (Pagetable.epoch pt);
  ignore (Pagetable.unmap pt ~vpn:1);
  check Alcotest.bool "unmap advances epoch" true (Pagetable.epoch pt > e1)

(* Process iteration must be in ascending-pid order — Hashtbl.iter order
   depends on insertion history and hash-table internals, which made
   every oracle sweep and metrics fold schedule-dependent — and must
   tolerate the callback reaping the process it is handed. *)
let test_iter_processes_sorted_and_reap_safe () =
  let k = Kernel.create ~costs:Cost_model.free () in
  let procs =
    List.map
      (fun _ ->
        Kernel.new_process k ~kind:Wedge_kernel.Process.Sthread ~uid:33 ~root:"/"
          ~sid:"u:r:t" ())
      (List.init 16 Fun.id)
  in
  (* Churn the table so pids are neither contiguous nor insertion-ordered. *)
  List.iteri (fun i p -> if i mod 3 = 0 then Kernel.reap k p) procs;
  ignore
    (Kernel.new_process k ~kind:Wedge_kernel.Process.Sthread ~uid:33 ~root:"/"
       ~sid:"u:r:t" ());
  let seen = ref [] in
  Kernel.iter_processes k (fun p -> seen := p.Wedge_kernel.Process.pid :: !seen);
  let order = List.rev !seen in
  check (Alcotest.list Alcotest.int) "ascending pid order"
    (List.sort compare order) order;
  check Alcotest.int "every live process visited" (Kernel.live_processes k)
    (List.length order);
  (* Reap from inside the walk: the snapshot must keep the iteration
     sound (visit each remaining process exactly once, no crash). *)
  let visited = ref 0 in
  Kernel.iter_processes k (fun p ->
      incr visited;
      Kernel.reap k p);
  check Alcotest.int "reap-during-iteration visits all" (List.length order) !visited;
  check Alcotest.int "table empty afterwards" 0 (Kernel.live_processes k)

let () =
  Alcotest.run "wedge_kernel"
    [
      ( "physmem",
        [
          Alcotest.test_case "alloc zeroed" `Quick test_physmem_alloc_zeroed;
          Alcotest.test_case "refcount" `Quick test_physmem_refcount;
          Alcotest.test_case "frame reuse" `Quick test_physmem_reuse;
          Alcotest.test_case "dead frame access" `Quick test_physmem_dead_access;
          Alcotest.test_case "growth" `Quick test_physmem_growth;
          Alcotest.test_case "demand-zero" `Quick test_physmem_demand_zero;
          Alcotest.test_case "scrub" `Quick test_physmem_scrub;
        ] );
      ( "vm",
        [
          Alcotest.test_case "rw roundtrip" `Quick test_vm_rw_roundtrip;
          Alcotest.test_case "unmapped faults" `Quick test_vm_unmapped_faults;
          Alcotest.test_case "read-only write faults" `Quick test_vm_readonly_faults_on_write;
          Alcotest.test_case "no-read faults" `Quick test_vm_noread_faults;
          Alcotest.test_case "partial read faults" `Quick test_vm_fault_is_partial_read_safe;
          Alcotest.test_case "read_into" `Quick test_vm_read_into;
          Alcotest.test_case "COW break isolates" `Quick test_vm_cow_break_isolates;
          Alcotest.test_case "COW break from an unwritten frame" `Quick
            test_vm_cow_break_from_unwritten_frame;
          Alcotest.test_case "first write seen through a warm entry" `Quick
            test_vm_first_write_seen_through_warm_entry;
          Alcotest.test_case "COW sole owner in place" `Quick test_vm_cow_sole_owner_claims_in_place;
          Alcotest.test_case "COW charges cost" `Quick test_vm_cow_charges_cost;
          Alcotest.test_case "shared read-only write faults" `Quick test_vm_share_readonly_then_write_faults;
          Alcotest.test_case "unmap releases frames" `Quick test_vm_unmap_releases_frames;
          Alcotest.test_case "destroy" `Quick test_vm_destroy;
          Alcotest.test_case "refused mapping takes nothing" `Quick
            test_vm_refused_mapping_takes_nothing;
          Alcotest.test_case "map_image shares one table" `Quick
            test_vm_map_image_shares_one_table;
          Alcotest.test_case "image frames die with the last holder" `Quick
            test_vm_image_frames_die_with_last_holder;
          Alcotest.test_case "probes" `Quick test_vm_can_read_write_probes;
        ] );
      ("vm-properties", List.map Test_rng.to_alcotest [ prop_refcount_invariant ]);
      ( "pagetable",
        [
          Alcotest.test_case "double map rejected" `Quick test_pagetable_double_map_rejected;
          Alcotest.test_case "unmap" `Quick test_pagetable_unmap;
          Alcotest.test_case "shared base" `Quick test_pagetable_shared_base;
          Alcotest.test_case "image refuses unsorted vpns" `Quick test_image_refuses_unsorted_vpns;
          Test_rng.to_alcotest prop_base_matches_model;
          Alcotest.test_case "epoch on structural change" `Quick
            test_pagetable_epoch_moves_on_structural_change;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "hit/miss counters" `Quick test_tlb_counters;
          Alcotest.test_case "protect revokes immediately" `Quick
            test_tlb_protect_revokes_immediately;
          Alcotest.test_case "unmap revokes immediately" `Quick
            test_tlb_unmap_revokes_immediately;
          Alcotest.test_case "destroy flushes" `Quick test_tlb_destroy_flushes;
          Alcotest.test_case "a fresh address space never serves another's translation" `Quick
            test_tlb_fresh_space_serves_no_other;
          Alcotest.test_case "stale entry cannot corrupt snapshot" `Quick
            test_tlb_stale_entry_cannot_corrupt_snapshot;
          Alcotest.test_case "COW breaks exactly once" `Quick test_tlb_cow_breaks_exactly_once;
          Alcotest.test_case "probe is advisory" `Quick test_probe_is_advisory;
          Alcotest.test_case "u64 63-bit roundtrip" `Quick test_u64_63bit_roundtrip;
          Alcotest.test_case "boundary into unmapped" `Quick test_boundary_second_page_unmapped;
          Alcotest.test_case "blit atomic across read-only" `Quick
            test_blit_across_readonly_page_is_atomic;
        ] );
      ("prot", [ Alcotest.test_case "grant subsumption" `Quick test_prot_subsumption ]);
      ( "vfs",
        [
          Alcotest.test_case "read modes" `Quick test_vfs_read_modes;
          Alcotest.test_case "chroot confines" `Quick test_vfs_chroot_confines;
          Alcotest.test_case "empty chroot" `Quick test_vfs_empty_chroot;
          Alcotest.test_case "write and append" `Quick test_vfs_write_and_append;
          Alcotest.test_case "readdir and unlink" `Quick test_vfs_readdir_and_unlink;
          Alcotest.test_case "resolve agrees with split" `Quick test_vfs_resolve_agrees_with_split;
        ] );
      ( "fd_table",
        [
          Alcotest.test_case "perm subsumption" `Quick test_fd_perm_subsumption;
          Alcotest.test_case "dup reduces only" `Quick test_fd_dup_reduces_only;
          Alcotest.test_case "close independent" `Quick test_fd_close_independent;
        ] );
      ( "selinux",
        [
          Alcotest.test_case "domain policy" `Quick test_selinux_domain_policy;
          Alcotest.test_case "transitions" `Quick test_selinux_transitions;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "process lifecycle" `Quick test_kernel_process_lifecycle;
          Alcotest.test_case "iter_processes sorted + reap-safe" `Quick
            test_iter_processes_sorted_and_reap_safe;
          Alcotest.test_case "syscall denial" `Quick test_kernel_syscall_denial;
          Alcotest.test_case "trap charges" `Quick test_kernel_trap_charges;
        ] );
    ]
