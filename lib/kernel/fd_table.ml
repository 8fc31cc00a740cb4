type perm = {
  fr : bool;
  fw : bool;
}

let perm_r = { fr = true; fw = false }
let perm_w = { fr = false; fw = true }
let perm_rw = { fr = true; fw = true }

let perm_subsumes ~parent ~child =
  (parent.fr || not child.fr) && (parent.fw || not child.fw)

type endpoint = {
  ep_read : int -> bytes;
  ep_write : bytes -> int -> int -> unit;
  ep_wait : unit -> unit;
      (* park until ep_read can make progress — readable, EOF, or cut.
         Called BEFORE the syscall trap, so a read that parks here enters
         no kernel while idle; returns at once on an endpoint that blocks
         inside ep_read. *)
}

type entry = {
  target : endpoint;
  perm : perm;
}

type t = {
  tbl : (int, entry) Hashtbl.t;
  mutable next : int;
}

let create () = { tbl = Hashtbl.create 8; next = 3 }

let add t target perm =
  let fd = t.next in
  t.next <- t.next + 1;
  Hashtbl.add t.tbl fd { target; perm };
  fd

let find t fd = Hashtbl.find_opt t.tbl fd

(* Closing a descriptor drops this process's reference only; the underlying
   endpoint (a shared open-file description) stays open for other holders
   and is shut down by its owner via the channel layer.  The entry goes
   with it, so a long-lived process (the master, one descriptor per
   connection it ever served) keeps no closed endpoint — and no channel
   buffer behind one — reachable.  Numbers are never reused:
   [next] only grows. *)
let close t fd = Hashtbl.remove t.tbl fd

let close_all t = Hashtbl.clear t.tbl

let dup_into ~src ~dst ~fd ~perm =
  match find src fd with
  | None -> invalid_arg (Printf.sprintf "Fd_table.dup_into: fd %d not open" fd)
  | Some e ->
      if not (perm_subsumes ~parent:e.perm ~child:perm) then
        invalid_arg (Printf.sprintf "Fd_table.dup_into: fd %d permission escalation" fd);
      if Hashtbl.mem dst.tbl fd then
        invalid_arg (Printf.sprintf "Fd_table.dup_into: fd %d already present" fd);
      (* Sthreads receive private descriptor copies (closing does not affect
         the parent), but the endpoint is shared state, as with fork. *)
      Hashtbl.add dst.tbl fd { target = e.target; perm };
      if fd >= dst.next then dst.next <- fd + 1

let install t ~fd target perm =
  if Hashtbl.mem t.tbl fd then
    invalid_arg (Printf.sprintf "Fd_table.install: fd %d already present" fd);
  Hashtbl.add t.tbl fd { target; perm };
  if fd >= t.next then t.next <- fd + 1

let count t = Hashtbl.length t.tbl
let fds t = Hashtbl.fold (fun fd _ acc -> fd :: acc) t.tbl [] |> List.sort compare
