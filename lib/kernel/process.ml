type kind =
  | Main
  | Sthread
  | Cgate
  | Recycled
  | Forked

type status =
  | Running
  | Exited of int
  | Faulted of string

type t = {
  pid : int;
  kind : kind;
  mutable uid : int;
  mutable root : string;
  mutable sid : string;
  vm : Vm.t;
  fds : Fd_table.t;
  mutable status : status;
}

let kind_to_string = function
  | Main -> "main"
  | Sthread -> "sthread"
  | Cgate -> "cgate"
  | Recycled -> "recycled"
  | Forked -> "forked"

let is_alive t = t.status = Running
