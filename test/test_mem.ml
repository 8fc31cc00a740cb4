(* Tests for tagged memory: the smalloc allocator (including qcheck
   property tests over random alloc/free traces) and the tag cache. *)

module Physmem = Wedge_kernel.Physmem
module Vm = Wedge_kernel.Vm
module Pagetable = Wedge_kernel.Pagetable
module Prot = Wedge_kernel.Prot
module Clock = Wedge_sim.Clock
module Cost_model = Wedge_sim.Cost_model
module Tag = Wedge_mem.Tag
module Smalloc = Wedge_mem.Smalloc
module Tag_cache = Wedge_mem.Tag_cache

let check = Alcotest.check
let ps = Physmem.page_size
let seg_base = 0x10000
let seg_pages = 8
let seg_size = seg_pages * ps

let mk_seg () =
  let pm = Physmem.create () in
  let vm = Vm.create ~pid:1 pm (Clock.create ()) Cost_model.free in
  Vm.map_fresh vm ~addr:seg_base ~pages:seg_pages ~prot:Prot.page_rw ~tag:None;
  Smalloc.init vm ~base:seg_base ~size:seg_size;
  (pm, vm)

(* ---------- Smalloc basics ---------- *)

let test_alloc_returns_usable_memory () =
  let _, vm = mk_seg () in
  let p = Smalloc.alloc vm ~base:seg_base 100 in
  Vm.write_bytes vm p (Bytes.make 100 'x');
  check Alcotest.bool "usable >= requested" true
    (Smalloc.For_testing.usable_size vm ~base:seg_base ~ptr:p >= 100);
  Smalloc.check vm ~base:seg_base

let test_allocations_disjoint () =
  let _, vm = mk_seg () in
  let ptrs = List.init 20 (fun i -> (Smalloc.alloc vm ~base:seg_base (16 + (i * 8)), 16 + (i * 8))) in
  (* Fill each with a distinct byte, then verify nothing was clobbered. *)
  List.iteri (fun i (p, n) -> Vm.write_bytes vm p (Bytes.make n (Char.chr (65 + i)))) ptrs;
  List.iteri
    (fun i (p, n) ->
      let b = Vm.read_bytes vm p n in
      check Alcotest.bool (Printf.sprintf "block %d intact" i) true
        (Bytes.for_all (fun c -> c = Char.chr (65 + i)) b))
    ptrs;
  Smalloc.check vm ~base:seg_base

let test_free_then_realloc_reuses () =
  let _, vm = mk_seg () in
  let p = Smalloc.alloc vm ~base:seg_base 256 in
  Smalloc.free vm ~base:seg_base p;
  let q = Smalloc.alloc vm ~base:seg_base 256 in
  check Alcotest.int "address reused" p q

let test_coalescing_recovers_space () =
  let _, vm = mk_seg () in
  (* 32 bytes of segment header *)
  let big = seg_size - 32 - 64 in
  let p = Smalloc.alloc vm ~base:seg_base big in
  Smalloc.free vm ~base:seg_base p;
  (* Fragment into many small blocks, free all, then the big one must fit
     again (requires coalescing). *)
  let small = List.init 32 (fun _ -> Smalloc.alloc vm ~base:seg_base 200) in
  List.iter (fun p -> Smalloc.free vm ~base:seg_base p) small;
  let q = Smalloc.alloc vm ~base:seg_base big in
  check Alcotest.bool "big allocation fits after coalescing" true (q > 0);
  Smalloc.check vm ~base:seg_base

let test_out_of_memory () =
  let _, vm = mk_seg () in
  (match Smalloc.alloc vm ~base:seg_base (seg_size * 2) with
  | _ -> Alcotest.fail "expected Out_of_tag_memory"
  | exception Smalloc.Out_of_tag_memory _ -> ());
  (* The segment remains usable. *)
  let p = Smalloc.alloc vm ~base:seg_base 64 in
  check Alcotest.bool "still works" true (p > 0)

let test_double_free_detected () =
  let _, vm = mk_seg () in
  let p = Smalloc.alloc vm ~base:seg_base 64 in
  Smalloc.free vm ~base:seg_base p;
  match Smalloc.free vm ~base:seg_base p with
  | _ -> Alcotest.fail "expected double-free detection"
  | exception Invalid_argument _ -> ()

let test_wild_free_rejected () =
  (* Regression: free/usable_size validate the pointer before touching
     the free list — a wild pointer raises instead of corrupting the
     segment. *)
  let _, vm = mk_seg () in
  let p = Smalloc.alloc vm ~base:seg_base 64 in
  let expect_invalid name f =
    match f () with
    | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "misaligned" (fun () -> Smalloc.free vm ~base:seg_base (p + 1));
  expect_invalid "before segment" (fun () ->
      Smalloc.free vm ~base:seg_base (seg_base + 8));
  expect_invalid "past segment" (fun () ->
      Smalloc.free vm ~base:seg_base (seg_base + seg_size + 128));
  expect_invalid "interior pointer" (fun () ->
      Smalloc.free vm ~base:seg_base (p + 16));
  expect_invalid "usable_size misaligned" (fun () ->
      ignore (Smalloc.For_testing.usable_size vm ~base:seg_base ~ptr:(p + 4)));
  expect_invalid "usable_size wild" (fun () ->
      ignore (Smalloc.For_testing.usable_size vm ~base:seg_base ~ptr:(p + 16)));
  (* The segment survives every rejected operation. *)
  Smalloc.check vm ~base:seg_base;
  Smalloc.free vm ~base:seg_base p;
  Smalloc.check vm ~base:seg_base

let test_corrupted_footer_rejected () =
  (* A peer that scribbles over a chunk footer (hostile writer sharing
     the tag) is caught by the header/footer cross-check on free. *)
  let _, vm = mk_seg () in
  let p = Smalloc.alloc vm ~base:seg_base 64 in
  let usable = Smalloc.For_testing.usable_size vm ~base:seg_base ~ptr:p in
  (* The footer is the last word of the chunk: overwrite it via the
     user's own (in-bounds-ish) buffer overflow. *)
  Vm.write_u64 vm (p + usable) 0xdeadbeef;
  match Smalloc.free vm ~base:seg_base p with
  | _ -> Alcotest.fail "expected footer-mismatch detection"
  | exception Invalid_argument _ -> ()

let test_bad_magic_rejected () =
  let pm = Physmem.create () in
  let vm = Vm.create ~pid:1 pm (Clock.create ()) Cost_model.free in
  Vm.map_fresh vm ~addr:seg_base ~pages:1 ~prot:Prot.page_rw ~tag:None;
  match Smalloc.alloc vm ~base:seg_base 8 with
  | _ -> Alcotest.fail "expected bad-magic rejection"
  | exception Invalid_argument _ -> ()

let test_alloc_respects_vm_protection () =
  (* An sthread without write permission on a tag cannot even run the
     allocator over it: the bookkeeping write faults. *)
  let pm = Physmem.create () in
  let clock = Clock.create () in
  let vm1 = Vm.create ~pid:1 pm clock Cost_model.free in
  let vm2 = Vm.create ~pid:2 pm clock Cost_model.free in
  Vm.map_fresh vm1 ~addr:seg_base ~pages:seg_pages ~prot:Prot.page_rw ~tag:None;
  Smalloc.init vm1 ~base:seg_base ~size:seg_size;
  for i = 0 to seg_pages - 1 do
    let addr = seg_base + (i * ps) in
    let pte = Option.get (Pagetable.find (Vm.page_table vm1) ~vpn:(addr / ps)) in
    Vm.map_frame vm2 ~addr ~frame:pte.Pagetable.frame ~prot:(Prot.page_of_grant Prot.R) ~tag:None
  done;
  match Smalloc.alloc vm2 ~base:seg_base 32 with
  | _ -> Alcotest.fail "expected fault"
  | exception Vm.Fault _ -> ()

let test_prefill_image_matches_init () =
  let pm = Physmem.create () in
  let clock = Clock.create () in
  let vm1 = Vm.create ~pid:1 pm clock Cost_model.free in
  let vm2 = Vm.create ~pid:2 pm clock Cost_model.free in
  Vm.map_fresh vm1 ~addr:seg_base ~pages:2 ~prot:Prot.page_rw ~tag:None;
  Vm.map_fresh vm2 ~addr:seg_base ~pages:2 ~prot:Prot.page_rw ~tag:None;
  Smalloc.init vm1 ~base:seg_base ~size:(2 * ps);
  List.iter
    (fun (addr, w) -> Vm.write_u64 vm2 addr w)
    (Smalloc.prefill_image ~base:seg_base ~size:(2 * ps));
  let a1 = Smalloc.alloc vm1 ~base:seg_base 40 in
  let a2 = Smalloc.alloc vm2 ~base:seg_base 40 in
  check Alcotest.int "prefilled segment allocates identically" a1 a2

(* ---------- Smalloc property tests ---------- *)

(* Random traces of alloc/free with integrity checking: every live block
   keeps its fill pattern; the segment structure stays valid. *)
let prop_random_trace =
  QCheck.Test.make ~name:"smalloc random alloc/free trace keeps integrity" ~count:60
    QCheck.(list (pair (int_range 1 600) bool))
    (fun ops ->
      let _, vm = mk_seg () in
      let live = Hashtbl.create 16 in
      let next_fill = ref 0 in
      List.iter
        (fun (size, do_free) ->
          if do_free && Hashtbl.length live > 0 then begin
            let p = Hashtbl.fold (fun p _ acc -> min p acc) live max_int in
            let fill, n = Hashtbl.find live p in
            let b = Vm.read_bytes vm p n in
            if not (Bytes.for_all (fun c -> Char.code c = fill) b) then
              QCheck.Test.fail_report "block corrupted before free";
            Smalloc.free vm ~base:seg_base p;
            Hashtbl.remove live p
          end
          else
            match Smalloc.alloc vm ~base:seg_base size with
            | p ->
                let fill = 1 + (!next_fill mod 250) in
                incr next_fill;
                Vm.write_bytes vm p (Bytes.make size (Char.chr fill));
                Hashtbl.replace live p (fill, size)
            | exception Smalloc.Out_of_tag_memory _ -> ())
        ops;
      (* Final integrity sweep + structural check. *)
      Hashtbl.iter
        (fun p (fill, n) ->
          let b = Vm.read_bytes vm p n in
          if not (Bytes.for_all (fun c -> Char.code c = fill) b) then
            QCheck.Test.fail_report "live block corrupted at end")
        live;
      Smalloc.check vm ~base:seg_base;
      true)

let prop_free_all_recovers_everything =
  QCheck.Test.make ~name:"freeing everything recovers the whole segment" ~count:60
    QCheck.(list_of_size Gen.(int_range 1 40) (int_range 1 500))
    (fun sizes ->
      let _, vm = mk_seg () in
      let initial = Smalloc.For_testing.free_bytes vm ~base:seg_base in
      let ptrs =
        List.filter_map
          (fun n ->
            match Smalloc.alloc vm ~base:seg_base n with
            | p -> Some p
            | exception Smalloc.Out_of_tag_memory _ -> None)
          sizes
      in
      List.iter (fun p -> Smalloc.free vm ~base:seg_base p) ptrs;
      Smalloc.check vm ~base:seg_base;
      Smalloc.For_testing.free_bytes vm ~base:seg_base = initial)

(* Regression for the pointer-validation sweep: the segment must be
   structurally valid after {e every single} operation, not just at the
   end of a trace — a validation bug that corrupts the free list shows
   up immediately instead of being masked by later coalescing. *)
let prop_checked_after_every_op =
  QCheck.Test.make ~name:"segment valid after every alloc/free" ~count:40
    QCheck.(list (pair (int_range 1 600) bool))
    (fun ops ->
      let _, vm = mk_seg () in
      let live = ref [] in
      List.iter
        (fun (size, do_free) ->
          (match (do_free, !live) with
          | true, p :: rest ->
              Smalloc.free vm ~base:seg_base p;
              live := rest
          | _ -> (
              match Smalloc.alloc vm ~base:seg_base size with
              | p ->
                  (* Every live pointer must still validate. *)
                  live := p :: !live
              | exception Smalloc.Out_of_tag_memory _ -> ()));
          Smalloc.check vm ~base:seg_base;
          List.iter
            (fun p ->
              if Smalloc.For_testing.usable_size vm ~base:seg_base ~ptr:p < 1 then
                QCheck.Test.fail_report "live pointer stopped validating")
            !live)
        ops;
      true)

let prop_alloc_8byte_aligned =
  QCheck.Test.make ~name:"allocations are 8-byte aligned" ~count:60
    QCheck.(list_of_size Gen.(int_range 1 30) (int_range 1 200))
    (fun sizes ->
      let _, vm = mk_seg () in
      List.for_all
        (fun n ->
          match Smalloc.alloc vm ~base:seg_base n with
          | p -> p land 7 = 0
          | exception Smalloc.Out_of_tag_memory _ -> true)
        sizes)

(* ---------- Tag registry ---------- *)

let test_tag_registry_lookup () =
  let reg = Tag.registry_create () in
  let t1 = Tag.register reg ~name:"a" ~base:0x10000 ~pages:2 in
  let t2 = Tag.register reg ~name:"b" ~base:0x20000 ~pages:1 in
  check Alcotest.bool "find t1" true (Tag.find reg t1.Tag.id = Some t1);
  check Alcotest.bool "by addr middle" true (Tag.find_by_addr reg 0x11fff = Some t1);
  check Alcotest.bool "by addr other" true (Tag.find_by_addr reg 0x20000 = Some t2);
  check Alcotest.bool "miss" true (Tag.find_by_addr reg 0x30000 = None);
  Tag.delete reg t1;
  check Alcotest.bool "deleted invisible" true (Tag.find reg t1.Tag.id = None);
  check Alcotest.bool "deleted addr miss" true (Tag.find_by_addr reg 0x10000 = None);
  check Alcotest.int "live tags" 1 (List.length (Tag.live_tags reg))

(* ---------- Tag cache ---------- *)

let test_tag_cache_hit_and_scrub () =
  let pm = Physmem.create () in
  let cache = Tag_cache.create pm in
  let f = Physmem.alloc pm in
  Bytes.blit_string "SECRET" 0 (Physmem.get_mut pm f) 0 6;
  Tag_cache.put cache { Tag_cache.base = 0x5000; pages = 1; frames = [ f ] };
  Physmem.decref pm f;
  (* the cache keeps it alive *)
  check Alcotest.int "cached frame alive" 1 (Physmem.refcount pm f);
  (match Tag_cache.take cache ~pages:1 with
  | Some e ->
      check Alcotest.int "same base" 0x5000 e.Tag_cache.base;
      check Alcotest.bool "scrubbed" true
        (Bytes.for_all (fun c -> c = '\000') (Physmem.get pm f))
  | None -> Alcotest.fail "expected hit");
  check Alcotest.int "hits" 1 (Tag_cache.hits cache);
  check Alcotest.bool "second take misses" true (Tag_cache.take cache ~pages:1 = None)

let test_tag_cache_size_class_exact () =
  let pm = Physmem.create () in
  let cache = Tag_cache.create pm in
  let f = Physmem.alloc pm in
  Tag_cache.put cache { Tag_cache.base = 0x5000; pages = 2; frames = [ f; Physmem.alloc pm ] };
  check Alcotest.bool "wrong size misses" true (Tag_cache.take cache ~pages:1 = None);
  check Alcotest.bool "right size hits" true (Tag_cache.take cache ~pages:2 <> None)

let test_tag_cache_scrub_counter () =
  (* Scrubbing is counted, not clock-charged: billing page_scrub per
     reused page would erase the cheap-reuse effect the cache reproduces
     (Figure 8), but the secrecy work must still be observable. *)
  let pm = Physmem.create () in
  let cache = Tag_cache.create pm in
  let fs = [ Physmem.alloc pm; Physmem.alloc pm; Physmem.alloc pm ] in
  Tag_cache.put cache { Tag_cache.base = 0x5000; pages = 3; frames = fs };
  List.iter (fun f -> Physmem.decref pm f) fs;
  check Alcotest.int "nothing scrubbed yet" 0 (Tag_cache.scrubbed_pages cache);
  ignore (Tag_cache.take cache ~pages:3);
  check Alcotest.int "every reused page scrubbed" 3 (Tag_cache.scrubbed_pages cache)

let test_tag_cache_disabled () =
  let pm = Physmem.create () in
  let cache = Tag_cache.create pm in
  Tag_cache.set_enabled cache false;
  let f = Physmem.alloc pm in
  Tag_cache.put cache { Tag_cache.base = 0x5000; pages = 1; frames = [ f ] };
  check Alcotest.int "nothing cached" 0 (List.length (Tag_cache.entries cache));
  check Alcotest.bool "take misses" true (Tag_cache.take cache ~pages:1 = None)

let qcheck tests = List.map Test_rng.to_alcotest tests

let () =
  Alcotest.run "wedge_mem"
    [
      ( "smalloc",
        [
          Alcotest.test_case "usable memory" `Quick test_alloc_returns_usable_memory;
          Alcotest.test_case "disjoint allocations" `Quick test_allocations_disjoint;
          Alcotest.test_case "free then realloc" `Quick test_free_then_realloc_reuses;
          Alcotest.test_case "coalescing" `Quick test_coalescing_recovers_space;
          Alcotest.test_case "out of memory" `Quick test_out_of_memory;
          Alcotest.test_case "double free" `Quick test_double_free_detected;
          Alcotest.test_case "wild free rejected" `Quick test_wild_free_rejected;
          Alcotest.test_case "corrupted footer rejected" `Quick test_corrupted_footer_rejected;
          Alcotest.test_case "bad magic" `Quick test_bad_magic_rejected;
          Alcotest.test_case "protection enforced" `Quick test_alloc_respects_vm_protection;
          Alcotest.test_case "prefill image" `Quick test_prefill_image_matches_init;
        ] );
      ( "smalloc-properties",
        qcheck
          [
            prop_random_trace;
            prop_checked_after_every_op;
            prop_free_all_recovers_everything;
            prop_alloc_8byte_aligned;
          ]
      );
      ("tag", [ Alcotest.test_case "registry lookup" `Quick test_tag_registry_lookup ]);
      ( "tag_cache",
        [
          Alcotest.test_case "hit and scrub" `Quick test_tag_cache_hit_and_scrub;
          Alcotest.test_case "exact size class" `Quick test_tag_cache_size_class_exact;
          Alcotest.test_case "scrub counter" `Quick test_tag_cache_scrub_counter;
          Alcotest.test_case "disabled" `Quick test_tag_cache_disabled;
        ] );
    ]
