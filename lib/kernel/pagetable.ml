type pte = {
  mutable frame : int;
  mutable prot : Prot.page;
  mutable tag : int option;
}

(* A snapshot's entries, shared by every table restored from it.  Nothing
   writes a base after [base] builds it: a table about to rewrite an
   entry it sees through its base takes a private copy first
   ([find_private]). *)
type base = (int, pte) Hashtbl.t

(* The epoch advances on every structural change (map/unmap), so a cached
   translation can be validated with one integer compare.  In-place pte
   mutations (a protection downgrade, a COW frame swap) deliberately do
   NOT advance it: those are the revocation paths that must perform an
   explicit TLB shootdown, and the tests assert they do.  Copying a base
   entry into the overlay does not advance it either: the translation it
   serves is unchanged. *)
type t = {
  tbl : (int, pte) Hashtbl.t;  (* the private overlay *)
  mutable shared : base;
  mutable hidden : (int, unit) Hashtbl.t;
      (* base vpns this table no longer sees through: unmapped, or copied
         into the overlay *)
  mutable epoch : int;
}

(* A table without a base sees through an empty one, which like every
   base is never written; and until a table first hides a vpn it shares
   an empty [hidden], which [hide] replaces before writing. *)
let no_base : base = Hashtbl.create 1
let none_hidden : (int, unit) Hashtbl.t = Hashtbl.create 1

let create () : t =
  { tbl = Hashtbl.create 512; shared = no_base; hidden = none_hidden; epoch = 0 }

let epoch t = t.epoch

let base entries : base =
  let b = Hashtbl.create (max 16 (List.length entries)) in
  List.iter
    (fun (vpn, pte) ->
      if Hashtbl.mem b vpn then
        invalid_arg (Printf.sprintf "Pagetable.base: vpn 0x%x listed twice" vpn);
      Hashtbl.add b vpn pte)
    entries;
  b

let base_find (b : base) ~vpn = Hashtbl.find_opt b vpn
let base_count (b : base) = Hashtbl.length b

let set_base t shared =
  if t.shared != no_base || Hashtbl.length t.tbl > 0 then
    invalid_arg "Pagetable.set_base: table not empty";
  t.epoch <- t.epoch + 1;
  t.shared <- shared

let hide t vpn =
  if t.hidden == none_hidden then t.hidden <- Hashtbl.create 16;
  Hashtbl.replace t.hidden vpn ()

(* Every lookup tries the overlay first; only a miss there looks through
   to the base, and only at a vpn the table has not hidden. *)
let through_base t vpn = if Hashtbl.mem t.hidden vpn then None else Hashtbl.find_opt t.shared vpn

let find t ~vpn =
  match Hashtbl.find_opt t.tbl vpn with
  | Some _ as found -> found
  | None -> through_base t vpn

let mem t ~vpn =
  Hashtbl.mem t.tbl vpn || (Hashtbl.mem t.shared vpn && not (Hashtbl.mem t.hidden vpn))

let owns t ~vpn = Hashtbl.mem t.tbl vpn

let find_private t ~vpn =
  match Hashtbl.find_opt t.tbl vpn with
  | Some _ as found -> found
  | None -> (
      match through_base t vpn with
      | Some pte ->
          let own = { frame = pte.frame; prot = pte.prot; tag = pte.tag } in
          hide t vpn;
          Hashtbl.add t.tbl vpn own;
          Some own
      | None -> None)

let map t ~vpn ~frame ~prot ~tag =
  if mem t ~vpn then
    invalid_arg (Printf.sprintf "Pagetable.map: vpn 0x%x already mapped" vpn);
  t.epoch <- t.epoch + 1;
  Hashtbl.add t.tbl vpn { frame; prot; tag }

let unmap t ~vpn =
  match Hashtbl.find_opt t.tbl vpn with
  | Some _ as found ->
      t.epoch <- t.epoch + 1;
      Hashtbl.remove t.tbl vpn;
      found
  | None -> (
      match through_base t vpn with
      | Some _ as found ->
          t.epoch <- t.epoch + 1;
          hide t vpn;
          found
      | None -> None)

let clear t =
  t.epoch <- t.epoch + 1;
  Hashtbl.clear t.tbl;
  t.shared <- no_base;
  t.hidden <- none_hidden

(* [hidden] holds base vpns only, and every base vpn the overlay holds is
   hidden, so nothing is counted twice. *)
let count t = Hashtbl.length t.tbl + Hashtbl.length t.shared - Hashtbl.length t.hidden

let iter_own f t = Hashtbl.iter f t.tbl

let iter f t =
  Hashtbl.iter f t.tbl;
  if t.hidden == none_hidden then Hashtbl.iter f t.shared
  else Hashtbl.iter (fun vpn pte -> if not (Hashtbl.mem t.hidden vpn) then f vpn pte) t.shared

let fold f t init =
  let acc = Hashtbl.fold f t.tbl init in
  if t.hidden == none_hidden then Hashtbl.fold f t.shared acc
  else
    Hashtbl.fold
      (fun vpn pte acc -> if Hashtbl.mem t.hidden vpn then acc else f vpn pte acc)
      t.shared acc
