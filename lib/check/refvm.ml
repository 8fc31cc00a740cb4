(* Differential checking of the memory subsystem.

   The real Vm is an optimising implementation: software TLB, COW breaks,
   quota accounting, atomic multi-page blits.  This module is the naive
   one — flat model frames, a per-pid vpn->mapping table, no caching, no
   sharing tricks — consuming the kernel-wide [Vm.mem_event] stream in
   lockstep and recomputing what every access should have observed.  Any
   disagreement (different bytes read, a success where the model faults,
   a fault the model cannot justify) raises [Mismatch] naming the event.

   Model rules worth their subtlety:
   - [Ev_map] with a seed REPLACES the model frame's bytes: the tag cache
     scrubs frames through direct [Physmem] writes that bypass recording,
     so map-time content is re-learned, never checked.
   - [Ev_cow] copies the old frame's model bytes to the new frame id
     (when the ids differ; an in-place claim keeps them) — exactly the
     semantics the real COW break must implement.
   - A real read needs [pr] (or kernel), a real write [pw] (or kernel):
     by the time [Ev_write] arrives any COW break already updated the
     protection via the preceding [Ev_cow], so a surviving [pcow] means
     the real side wrote without breaking — a genuine bug.
   - u64 scalar reads are compared through the same 63-bit codec the
     accessor uses ([Ev_read.u64]): the model masks bit 63 of its own
     word before comparing.
   - Fault reasons the model can verify ("unmapped page", "no read
     permission", "no write permission") are checked against model
     state; injected/oversized faults are accepted as-is. *)

module Kernel = Wedge_kernel.Kernel
module Physmem = Wedge_kernel.Physmem
module Pagetable = Wedge_kernel.Pagetable
module Process = Wedge_kernel.Process
module Prot = Wedge_kernel.Prot
module Vm = Wedge_kernel.Vm

exception Mismatch of string

let mismatch fmt = Printf.ksprintf (fun s -> raise (Mismatch s)) fmt

let page_size = Physmem.page_size

type mapping = {
  mutable m_frame : int;
  mutable m_prot : Prot.page;
}

type t = {
  kernel : Kernel.t;
  frames : (int, bytes) Hashtbl.t;  (* frame id -> model bytes *)
  procs : (int, (int, mapping) Hashtbl.t) Hashtbl.t;  (* pid -> vpn -> mapping *)
  mutable events : int;
  mutable armed : bool;
}

let create kernel =
  { kernel; frames = Hashtbl.create 256; procs = Hashtbl.create 16; events = 0; armed = false }

let events t = t.events

let proc_table t pid =
  match Hashtbl.find_opt t.procs pid with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 64 in
      Hashtbl.add t.procs pid tbl;
      tbl

let model_frame t frame =
  match Hashtbl.find_opt t.frames frame with
  | Some b -> b
  | None ->
      let b = Bytes.make page_size '\000' in
      Hashtbl.add t.frames frame b;
      b

(* Prime the model from page-table ground truth, so arming mid-run (after
   boot, after servers already mapped their worlds) starts consistent. *)
let sync t =
  Hashtbl.reset t.frames;
  Hashtbl.reset t.procs;
  let pm = t.kernel.Kernel.pm in
  Kernel.iter_processes t.kernel (fun p ->
      let tbl = proc_table t p.Process.pid in
      Pagetable.iter
        (fun vpn pte ->
          Hashtbl.replace tbl vpn
            { m_frame = pte.Pagetable.frame; m_prot = pte.Pagetable.prot };
          if not (Hashtbl.mem t.frames pte.Pagetable.frame) then
            Hashtbl.add t.frames pte.Pagetable.frame
              (Bytes.copy (Physmem.get pm pte.Pagetable.frame)))
        (Vm.page_table p.Process.vm))

(* ------------------------------------------------------------------ *)
(* Model access: what should this read/write have observed?            *)

type outcome =
  | Ok_bytes of bytes
  | Would_fault of string  (* the model's fault reason *)

let model_range t pid addr len ~(access : Vm.access) ~kernel =
  let tbl = proc_table t pid in
  let buf = Bytes.create len in
  let rec go addr dst remaining =
    if remaining = 0 then Ok_bytes buf
    else
      let vpn = addr / page_size in
      let off = addr mod page_size in
      match Hashtbl.find_opt tbl vpn with
      | None -> Would_fault "unmapped page"
      | Some m ->
          let allowed =
            kernel
            ||
            match access with
            | Vm.Read -> m.m_prot.Prot.pr
            | Vm.Write -> m.m_prot.Prot.pw
          in
          if not allowed then
            Would_fault
              (match access with
              | Vm.Read -> "no read permission"
              | Vm.Write -> "no write permission")
          else begin
            let n = min remaining (page_size - off) in
            Bytes.blit (model_frame t m.m_frame) off buf dst n;
            go (addr + n) (dst + n) (remaining - n)
          end
  in
  go addr 0 len

let apply_write t pid addr value =
  let tbl = proc_table t pid in
  let len = Bytes.length value in
  let rec go addr src remaining =
    if remaining > 0 then begin
      let vpn = addr / page_size in
      let off = addr mod page_size in
      match Hashtbl.find_opt tbl vpn with
      | None -> mismatch "refvm: write applied to unmapped vpn 0x%x (pid %d)" vpn pid
      | Some m ->
          let n = min remaining (page_size - off) in
          Bytes.blit value src (model_frame t m.m_frame) off n;
          go (addr + n) (src + n) (remaining - n)
    end
  in
  go addr 0 len

let hex b =
  String.concat "" (List.init (Bytes.length b) (fun i -> Printf.sprintf "%02x" (Bytes.get_uint8 b i)))

(* ------------------------------------------------------------------ *)
(* Event application                                                   *)

let apply t (ev : Vm.mem_event) =
  t.events <- t.events + 1;
  match ev with
  | Vm.Ev_map { pid; vpn; frame; prot; seed } ->
      (* Seeded content is re-learned, never checked: the tag cache
         scrubs frames through Physmem directly, bypassing recording. *)
      let content =
        match seed with None -> Bytes.make page_size '\000' | Some snap -> Bytes.copy snap
      in
      Hashtbl.replace t.frames frame content;
      Hashtbl.replace (proc_table t pid) vpn { m_frame = frame; m_prot = prot }
  | Vm.Ev_unmap { pid; vpn } ->
      let tbl = proc_table t pid in
      if not (Hashtbl.mem tbl vpn) then
        mismatch "refvm: pid %d unmapped vpn 0x%x the model never saw mapped" pid vpn;
      Hashtbl.remove tbl vpn
  | Vm.Ev_prot { pid; vpn; prot } -> (
      match Hashtbl.find_opt (proc_table t pid) vpn with
      | None -> mismatch "refvm: pid %d reprotected unmapped vpn 0x%x" pid vpn
      | Some m -> m.m_prot <- prot)
  | Vm.Ev_cow { pid; vpn; frame; prot } -> (
      match Hashtbl.find_opt (proc_table t pid) vpn with
      | None -> mismatch "refvm: pid %d COW-broke unmapped vpn 0x%x" pid vpn
      | Some m ->
          if frame <> m.m_frame then
            Hashtbl.replace t.frames frame (Bytes.copy (model_frame t m.m_frame));
          m.m_frame <- frame;
          m.m_prot <- prot)
  | Vm.Ev_destroy { pid } -> Hashtbl.remove t.procs pid
  | Vm.Ev_read { pid; addr; value; kernel; u64 } -> (
      let len = Bytes.length value in
      match model_range t pid addr len ~access:Vm.Read ~kernel with
      | Would_fault reason ->
          mismatch "refvm: pid %d read 0x%x/%d succeeded but model faults (%s)" pid addr
            len reason
      | Ok_bytes b ->
          (* u64 scalar reads observe the stored word minus bit 63; the
             emitted value already has it cleared, so clear ours too. *)
          if u64 then Bytes.set_uint8 b 7 (Bytes.get_uint8 b 7 land 0x7f);
          if not (Bytes.equal b value) then
            mismatch "refvm: pid %d read 0x%x/%d saw %s but model has %s" pid addr len
              (hex value) (hex b))
  | Vm.Ev_write { pid; addr; value; kernel } -> (
      let len = Bytes.length value in
      match model_range t pid addr len ~access:Vm.Write ~kernel with
      | Would_fault reason ->
          mismatch "refvm: pid %d write 0x%x/%d succeeded but model faults (%s)" pid addr
            len reason
      | Ok_bytes _ -> apply_write t pid addr value)
  | Vm.Ev_fault { pid; addr; access; reason; kernel } -> (
      let tbl = proc_table t pid in
      let vpn = addr / page_size in
      match reason with
      | "unmapped page" ->
          if Hashtbl.mem tbl vpn then
            mismatch "refvm: pid %d faulted 'unmapped' at 0x%x but model maps it" pid addr
      | "no read permission" -> (
          match Hashtbl.find_opt tbl vpn with
          | None -> mismatch "refvm: pid %d read-perm fault at unmapped 0x%x" pid addr
          | Some m ->
              if kernel || m.m_prot.Prot.pr then
                mismatch "refvm: pid %d faulted 'no read permission' at 0x%x but model \
                          allows the read"
                  pid addr)
      | "no write permission" -> (
          match Hashtbl.find_opt tbl vpn with
          | None -> mismatch "refvm: pid %d write-perm fault at unmapped 0x%x" pid addr
          | Some m ->
              if kernel || m.m_prot.Prot.pw || m.m_prot.Prot.pcow then
                mismatch "refvm: pid %d faulted 'no write permission' at 0x%x but model \
                          allows the write"
                  pid addr)
      | _ ->
          (* Injected faults, oversized lengths: not derivable from model
             state, accepted as reported. *)
          ignore access)

(* ------------------------------------------------------------------ *)
(* Arming and the final sweep                                          *)

let arm t =
  if t.armed then invalid_arg "Refvm.arm: already armed";
  sync t;
  t.armed <- true;
  t.kernel.Kernel.mem_rec.Vm.sink <- Some (apply t)

let disarm t =
  if t.armed then begin
    t.armed <- false;
    t.kernel.Kernel.mem_rec.Vm.sink <- None
  end

(* End-of-run sweep: every model mapping must exist in the real page
   table with the same frame and protection, with byte-identical frame
   content, and the real table must hold nothing the model lacks.  Only
   mapped frames are compared — an unmapped cached frame may have been
   scrubbed behind the recorder's back, by design. *)
let verify t =
  let pm = t.kernel.Kernel.pm in
  Kernel.iter_processes t.kernel (fun p ->
      let pid = p.Process.pid in
      let pt = Vm.page_table p.Process.vm in
      let tbl = proc_table t pid in
      if Pagetable.count pt <> Hashtbl.length tbl then
        mismatch "refvm: pid %d maps %d pages but model has %d" pid (Pagetable.count pt)
          (Hashtbl.length tbl);
      Pagetable.iter
        (fun vpn pte ->
          match Hashtbl.find_opt tbl vpn with
          | None -> mismatch "refvm: pid %d vpn 0x%x mapped but absent from model" pid vpn
          | Some m ->
              if m.m_frame <> pte.Pagetable.frame then
                mismatch "refvm: pid %d vpn 0x%x backed by frame %d, model says %d" pid
                  vpn pte.Pagetable.frame m.m_frame;
              if m.m_prot <> pte.Pagetable.prot then
                mismatch "refvm: pid %d vpn 0x%x prot %s, model says %s" pid vpn
                  (Prot.page_to_string pte.Pagetable.prot)
                  (Prot.page_to_string m.m_prot);
              if not (Bytes.equal (Physmem.get pm pte.Pagetable.frame) (model_frame t m.m_frame))
              then
                mismatch "refvm: pid %d vpn 0x%x (frame %d) content diverges from model"
                  pid vpn pte.Pagetable.frame)
        pt)
