module W = Wedge_core.Wedge
module Sc = Wedge_core.Sc
module Instr = Wedge_sim.Instr
module Prot = Wedge_kernel.Prot
module Layout = Wedge_kernel.Layout
module Tag = Wedge_mem.Tag

type violation = {
  v_addr : int;
  v_len : int;
  v_mode : Instr.kind;
  v_tag : Tag.t option;
}

(* Would the declared policy allow this access?  The pristine snapshot,
   the private stack and heap are always allowed; tagged memory follows
   the sc's grants (copy-on-write cannot be emulated with pthreads, §4.2,
   so COW counts as write-allowed). *)
let allowed app (sc : Sc.t) addr kind =
  let in_range base pages = addr >= base && addr < base + (pages * 4096) in
  if in_range Layout.heap_base Layout.heap_pages then true
  else if in_range Layout.stack_base Layout.stack_pages then true
  else
    match W.find_tag_by_addr app addr with
    | Some tag -> (
        match Sc.mem_grant_of sc tag.Tag.id with
        | Some Prot.RW | Some Prot.COW -> true
        | Some Prot.R -> kind = Instr.Read
        | None -> false)
    | None ->
        (* untagged non-heap memory: the pristine image (always granted,
           copy-on-write) *)
        addr >= Layout.data_base && addr < Layout.tag_base

let run parent sc body arg =
  let app = W.app_of parent in
  let violations = ref [] in
  let base_instr = W.instr_of parent in
  let checking =
    {
      Instr.on_access =
        (fun addr len kind ->
          base_instr.Instr.on_access addr len kind;
          if not (allowed app sc addr kind) then
            violations :=
              {
                v_addr = addr;
                v_len = len;
                v_mode = kind;
                v_tag = W.find_tag_by_addr app addr;
              }
              :: !violations);
      on_enter = base_instr.Instr.on_enter;
      on_exit = base_instr.Instr.on_exit;
      on_alloc = base_instr.Instr.on_alloc;
      on_free = base_instr.Instr.on_free;
    }
  in
  let saved = W.instr_of parent in
  W.set_instr parent checking;
  let result =
    match W.pthread parent (fun ctx -> body ctx arg) with
    | v -> v
    | exception e ->
        W.set_instr parent saved;
        raise e
  in
  W.set_instr parent saved;
  (result, List.rev !violations)

let missing_grants _app violations =
  let tbl : (int, Tag.t * Wedge_kernel.Prot.grant) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun v ->
      match v.v_tag with
      | None -> ()
      | Some tag ->
          let want = if v.v_mode = Instr.Write then Prot.RW else Prot.R in
          let merged =
            match Hashtbl.find_opt tbl tag.Tag.id with
            | Some (_, Prot.RW) -> Prot.RW
            | Some (_, _) | None -> want
          in
          Hashtbl.replace tbl tag.Tag.id (tag, merged))
    violations;
  Hashtbl.fold (fun _ v acc -> v :: acc) tbl []
  |> List.sort (fun ((a : Tag.t), _) ((b : Tag.t), _) -> compare a.Tag.id b.Tag.id)

let pp_violations fmt l =
  List.iter
    (fun v ->
      Format.fprintf fmt "  %s 0x%x (%d bytes) in %s@."
        (match v.v_mode with Instr.Read -> "read" | Instr.Write -> "write")
        v.v_addr v.v_len
        (match v.v_tag with Some t -> "tag " ^ t.Tag.name | None -> "untagged memory"))
    l
