type pte = {
  mutable frame : int;
  mutable prot : Prot.page;
  mutable tag : int option;
}

(* A snapshot's entries in vpn order, shared by every table restored from
   it: [ptes.(i)] maps [vpns.(i)], and the vpns strictly increase, so a
   lookup is a bisection and a walk is already sorted.  Nothing writes a
   base after [base] builds it: a table about to rewrite an entry it sees
   through its base takes a private copy first ([find_private]). *)
type base = { vpns : int array; ptes : pte array }

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
let no_base = { vpns = [||]; ptes = [||] }
let none_hidden : (int, unit) Hashtbl.t = Hashtbl.create 1

let create () : t =
  { tbl = Hashtbl.create 512; shared = no_base; hidden = none_hidden; epoch = 0 }

let epoch t = t.epoch

let base vpns ptes =
  let n = Array.length vpns in
  if Array.length ptes <> n then
    invalid_arg (Printf.sprintf "Pagetable.base: %d vpns but %d entries" n (Array.length ptes));
  for i = 1 to n - 1 do
    if vpns.(i) <= vpns.(i - 1) then
      invalid_arg
        (Printf.sprintf "Pagetable.base: vpn 0x%x listed after 0x%x" vpns.(i) vpns.(i - 1))
  done;
  { vpns; ptes }

(* The index of [vpn] in [vpns.(lo) .. vpns.(hi - 1)], or -1. *)
let rec bisect (vpns : int array) (vpn : int) lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let v = Array.unsafe_get vpns mid in
    if v = vpn then mid else if v < vpn then bisect vpns vpn (mid + 1) hi else bisect vpns vpn lo mid

(* The index of [vpn] in [b], or -1.  An image's pages lie mostly in one
   dense run from its first vpn, where a page's index is its offset from
   that vpn; the rest are found by bisection. *)
let index b vpn =
  let vpns = b.vpns in
  let n = Array.length vpns in
  let i = if n = 0 then -1 else vpn - Array.unsafe_get vpns 0 in
  if i >= 0 && i < n && Array.unsafe_get vpns i = vpn then i else bisect vpns vpn 0 n

let base_find b ~vpn =
  let i = index b vpn in
  if i < 0 then None else Some (Array.unsafe_get b.ptes i)

let base_count b = Array.length b.vpns

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
let through_base t vpn = if Hashtbl.mem t.hidden vpn then None else base_find t.shared ~vpn

let find t ~vpn =
  match Hashtbl.find_opt t.tbl vpn with
  | Some _ as found -> found
  | None -> through_base t vpn

let mem t ~vpn =
  Hashtbl.mem t.tbl vpn || (index t.shared vpn >= 0 && not (Hashtbl.mem t.hidden vpn))

let owns t ~vpn = Hashtbl.mem t.tbl vpn
let find_own t ~vpn = Hashtbl.find_opt t.tbl vpn

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
let count t = Hashtbl.length t.tbl + base_count t.shared - Hashtbl.length t.hidden

let iter_own f t = Hashtbl.iter f t.tbl

(* The base entries the table still sees, in vpn order. *)
let iter_base f t =
  let { vpns; ptes } = t.shared in
  for i = 0 to Array.length vpns - 1 do
    let vpn = Array.unsafe_get vpns i in
    if t.hidden == none_hidden || not (Hashtbl.mem t.hidden vpn) then
      f vpn (Array.unsafe_get ptes i)
  done

let iter f t =
  Hashtbl.iter f t.tbl;
  iter_base f t

let fold f t init =
  let acc = ref (Hashtbl.fold f t.tbl init) in
  iter_base (fun vpn pte -> acc := f vpn pte !acc) t;
  !acc

(* Fills a snapshot's arrays before each slot gets its entry; never
   handed out. *)
let vacant = { frame = -1; prot = Prot.page_none; tag = None }

(* One merge of two sorted runs: the table's own entries (few, sorted
   here) and the base entries it still sees (sorted already).  A base
   record whose protection [prot] keeps goes into the result as is, since
   no base is ever written; every other entry is a fresh copy. *)
let snapshot t ~prot =
  let own =
    ref
      (Hashtbl.fold (fun vpn pte acc -> (vpn, pte) :: acc) t.tbl []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b))
  in
  let n = count t in
  let vpns = Array.make n 0 and ptes = Array.make n vacant in
  let next = ref 0 in
  let emit vpn pte =
    vpns.(!next) <- vpn;
    ptes.(!next) <- pte;
    incr next
  in
  let rec own_below vpn =
    match !own with
    | (v, pte) :: rest when v < vpn ->
        emit v { frame = pte.frame; prot = prot pte; tag = pte.tag };
        own := rest;
        own_below vpn
    | _ -> ()
  in
  iter_base
    (fun vpn pte ->
      own_below vpn;
      let p = prot pte in
      emit vpn (if p == pte.prot || p = pte.prot then pte else { pte with prot = p }))
    t;
  own_below max_int;
  (vpns, ptes)
