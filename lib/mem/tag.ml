type t = {
  id : int;
  base : int;
  pages : int;
  name : string;
  mutable live : bool;
  mutable frames : int array;
}

let size_bytes t = t.pages * Wedge_kernel.Physmem.page_size

type registry = {
  tbl : (int, t) Hashtbl.t;
  mutable next_id : int;
}

let registry_create () = { tbl = Hashtbl.create 32; next_id = 1 }

let register reg ~name ~base ~pages =
  let id = reg.next_id in
  reg.next_id <- reg.next_id + 1;
  let t = { id; base; pages; name; live = true; frames = [||] } in
  Hashtbl.add reg.tbl id t;
  t

let find_by_addr reg addr =
  Hashtbl.fold
    (fun _ t acc ->
      match acc with
      | Some _ -> acc
      | None ->
          if t.live && addr >= t.base && addr < t.base + size_bytes t then Some t
          else None)
    reg.tbl None

let delete reg t =
  t.live <- false;
  Hashtbl.remove reg.tbl t.id

let live_tags reg =
  Hashtbl.fold (fun _ t acc -> if t.live then t :: acc else acc) reg.tbl []
  |> List.sort (fun a b -> compare a.id b.id)
