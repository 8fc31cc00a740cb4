type t = (string, int ref) Hashtbl.t

let create () : t = Hashtbl.create 32

(* [Hashtbl.find], not [find_opt]: a counter bump on the kernel-entry
   path allocates nothing. *)
let add t name n =
  match Hashtbl.find t name with
  | r -> r := !r + n
  | exception Not_found -> Hashtbl.add t name (ref n)

let bump t name = add t name 1
let get t name = match Hashtbl.find_opt t name with Some r -> !r | None -> 0
let reset t = Hashtbl.reset t

let to_list t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp fmt t =
  List.iter (fun (k, v) -> Format.fprintf fmt "%-32s %d@." k v) (to_list t)
