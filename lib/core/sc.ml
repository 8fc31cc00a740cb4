type mem_grant = {
  tag : Wedge_mem.Tag.t;
  grant : Wedge_kernel.Prot.grant;
}

type fd_grant = {
  fd : int;
  perm : Wedge_kernel.Fd_table.perm;
}

type t = {
  mutable mems : mem_grant list;
  mutable fds : fd_grant list;
  mutable gates : int list;
  mutable uid : int option;
  mutable root : string option;
  mutable sid : string option;
}

let create () = { mems = []; fds = []; gates = []; uid = None; root = None; sid = None }

let mem_add t tag grant =
  t.mems <- { tag; grant } :: List.filter (fun g -> g.tag.Wedge_mem.Tag.id <> tag.Wedge_mem.Tag.id) t.mems

let fd_add t fd perm = t.fds <- { fd; perm } :: List.filter (fun g -> g.fd <> fd) t.fds
let sel_context t sid = t.sid <- Some sid
let set_uid t uid = t.uid <- Some uid
let set_root t root = t.root <- Some root
let gate_grant t gid = if not (List.mem gid t.gates) then t.gates <- gid :: t.gates

let mem_grant_of t tag_id =
  List.find_opt (fun g -> g.tag.Wedge_mem.Tag.id = tag_id) t.mems
  |> Option.map (fun g -> g.grant)
