module W = Wedge_core.Wedge
module Tag = Wedge_mem.Tag
module Vm = Wedge_kernel.Vm

type loot = { mutable items : (string * string) list }

let loot_create () = { items = [] }
let grab l ~label data = l.items <- (label, data) :: l.items
let stolen l ~label = List.assoc_opt label l.items
let count l = List.length l.items
let labels l = List.rev_map fst l.items

let try_read ctx ~addr ~len =
  match W.read_string ctx addr len with
  | s -> Ok s
  | exception Vm.Fault f -> Error (Vm.fault_to_string f)

let steal_tag ctx loot ~label (tag : Tag.t) =
  match try_read ctx ~addr:tag.Tag.base ~len:(Tag.size_bytes tag) with
  | Ok data ->
      grab loot ~label data;
      true
  | Error _ -> false
