type t = {
  tbl : (string, bytes) Hashtbl.t;
  enabled : bool;
}

let create ?(enabled = true) () = { tbl = Hashtbl.create 64; enabled }
let store t ~sid ~master = if t.enabled then Hashtbl.replace t.tbl sid master
let lookup t ~sid = if t.enabled then Hashtbl.find_opt t.tbl sid else None
