module W = Wedge_core.Wedge
module Prot = Wedge_kernel.Prot
module Fd_table = Wedge_kernel.Fd_table
module Vfs = Wedge_kernel.Vfs
module Kernel = Wedge_kernel.Kernel
module Chan = Wedge_net.Chan
module Guard = Wedge_net.Guard
module Lineio = Wedge_net.Lineio

module Supervisor = Wedge_core.Supervisor
module Synth = Wedge_crowbar.Synth
module Service = Wedge_net.Service

(* uid block layout: u8 authed ++ u32 uid ++ u8 namelen ++ name *)
let read_uid_block gctx uid_block =
  if W.read_u8 gctx uid_block <> 1 then None
  else begin
    let uid = W.read_u32 gctx (uid_block + 1) in
    let n = W.read_u8 gctx (uid_block + 5) in
    Some (uid, W.read_string gctx (uid_block + 6) n)
  end

let write_uid_block gctx uid_block ~uid ~name =
  W.write_u8 gctx uid_block 1;
  W.write_u32 gctx (uid_block + 1) uid;
  W.write_u8 gctx (uid_block + 5) (String.length name);
  W.write_string gctx (uid_block + 6) name

(* The mailbox gate's results: [r_done], [r_missing] (no such message),
   [r_unauth] (not authenticated; also what a contained gate fault
   returns) and [r_too_large] (the reply does not fit the mail buffer). *)
let r_done = 1
let r_missing = 0
let r_unauth = -1
let r_too_large = -2

(* The mail buffer: one [mail_size]-byte smalloc block holding a
   length-prefixed string, u32 len ++ data.  A string that does not fit
   is refused ([r_too_large]) before anything is written — the bound is
   the block's allocated size, so checking it costs no memory access. *)
let mail_size = 16384

let write_buf ctx addr s =
  if 4 + String.length s > mail_size then r_too_large
  else begin
    W.write_u32 ctx addr (String.length s);
    W.write_string ctx (addr + 4) s;
    r_done
  end

(* The length prefix, refused ([Too_large]) past the block's capacity
   before anything is sized from it: the handler allocates host memory
   only for a length the buffer can hold. *)
let buf_len ctx addr =
  let n = W.read_u32 ctx addr in
  if n > mail_size - 4 then Error Pop3_proto.Too_large else Ok n

let read_buf ctx addr = Result.map (W.read_string ctx (addr + 4)) (buf_len ctx addr)

(* ---------- login callgate (privileged: reads the password db) ---------- *)

let login_entry gctx ~trusted:uid_block ~arg =
  let ulen = W.read_u8 gctx arg in
  let user = W.read_string gctx (arg + 1) ulen in
  let plen = W.read_u8 gctx (arg + 1 + ulen) in
  let password = W.read_string gctx (arg + 2 + ulen) plen in
  match W.vfs_read gctx Pop3_env.passwd_path with
  | Error _ -> 0
  | Ok passwd -> (
      match Pop3_env.lookup_line ~passwd_file:passwd ~user with
      | None -> 0
      | Some line -> (
          match Pop3_env.check_password ~passwd_line:line ~user ~password with
          | Some uid ->
              write_uid_block gctx uid_block ~uid ~name:user;
              1
          | None -> 0))

(* ---------- mailbox callgate (serves only the authenticated uid) ---------- *)

let op_stat = 1
let op_list = 2
let op_retr = 3
let op_dele = 4

let mbox_entry ~mail_block gctx ~trusted:uid_block ~arg =
  match read_uid_block gctx uid_block with
  | None -> r_unauth
  | Some (uid, name) -> (
      let vfs = (W.kernel (W.app_of gctx)).Kernel.vfs in
      let dir = Pop3_env.maildir name in
      let mail_path n = String.concat "" [ dir; "/"; string_of_int n; ".eml" ] in
      (* All file access under the mailbox owner's uid, not root: the gate
         cannot be talked into reading another user's spool. *)
      let read_mail n = Vfs.read_file vfs ~root:"/" ~uid (mail_path n) in
      let listing () =
        match Vfs.readdir vfs ~root:"/" ~uid dir with
        | Error _ -> []
        | Ok files ->
            List.filter_map
              (fun f ->
                match String.split_on_char '.' f with
                | [ n; "eml" ] -> int_of_string_opt n
                | _ -> None)
              files
            |> List.sort compare
      in
      let op = W.read_u8 gctx arg in
      let msgno = W.read_u32 gctx (arg + 1) in
      if op = op_stat then begin
        let entries = listing () in
        let total =
          List.fold_left
            (fun acc n -> match read_mail n with Ok b -> acc + String.length b | Error _ -> acc)
            0 entries
        in
        write_buf gctx mail_block (Printf.sprintf "%d %d" (List.length entries) total)
      end
      else if op = op_list then begin
        let lines =
          List.filter_map
            (fun n ->
              match read_mail n with
              | Ok b -> Some (Printf.sprintf "%d %d" n (String.length b))
              | Error _ -> None)
            (listing ())
        in
        write_buf gctx mail_block (String.concat "\n" lines)
      end
      else if op = op_retr then begin
        match read_mail msgno with
        | Ok body -> write_buf gctx mail_block body
        | Error _ -> r_missing
      end
      else if op = op_dele then
        match Vfs.unlink vfs ~root:"/" ~uid (mail_path msgno) with
        | Ok () -> r_done
        | Error _ -> r_missing
      else r_unauth)

(* ---------- the worker-side backend: everything through callgates ---------- *)

let worker_backend ctx ~login_gate ~mbox_gate ~arg_tag ~arg_block ~mail_block =
  let arg_perms = W.sc_create () in
  W.sc_mem_add arg_perms arg_tag Prot.R;
  let call_mbox op msgno =
    (* The argument block holds a u32: a number outside it names no
       message, and must not wrap onto one that exists. *)
    if msgno < 0 || msgno > 0xFFFF_FFFF then Error Pop3_proto.No_such_message
    else begin
      W.write_u8 ctx arg_block op;
      W.write_u32 ctx (arg_block + 1) msgno;
      let r = W.cgate ctx mbox_gate ~perms:arg_perms ~arg:arg_block in
      if r = r_done then Ok ()
      else if r = r_missing then Error Pop3_proto.No_such_message
      else if r = r_too_large then Error Pop3_proto.Too_large
      else Error Pop3_proto.Unauthenticated
    end
  in
  let mail_buffer () = read_buf ctx mail_block in
  (* RETR's body goes from the mail buffer straight into the reply. *)
  let mail_body len =
    { Pop3_proto.len; fill = (fun buf pos -> W.read_into ctx (mail_block + 4) buf pos len) }
  in
  {
    Pop3_proto.login =
      (fun ~user ~password ->
        if String.length user > 100 || String.length password > 100 then false
        else begin
          W.write_u8 ctx arg_block (String.length user);
          W.write_string ctx (arg_block + 1) user;
          W.write_u8 ctx (arg_block + 1 + String.length user) (String.length password);
          W.write_string ctx (arg_block + 2 + String.length user) password;
          W.cgate ctx login_gate ~perms:arg_perms ~arg:arg_block = 1
        end);
    stat =
      (fun () ->
        Result.bind (Result.bind (call_mbox op_stat 0) mail_buffer) (fun s ->
            match String.split_on_char ' ' s with
            | [ n; total ] -> Ok (int_of_string n, int_of_string total)
            | _ -> Error Pop3_proto.Unauthenticated));
    list_mails =
      (fun () ->
        Result.map
          (fun s ->
            String.split_on_char '\n' s
            |> List.filter_map (fun line ->
                   match String.split_on_char ' ' line with
                   | [ a; b ] -> (
                       match (int_of_string_opt a, int_of_string_opt b) with
                       | Some a, Some b -> Some (a, b)
                       | _ -> None)
                   | _ -> None))
          (Result.bind (call_mbox op_list 0) mail_buffer));
    retr =
      (fun n ->
        Result.bind (call_mbox op_retr n) (fun () ->
            Result.map mail_body (buf_len ctx mail_block)));
    dele = (fun n -> call_mbox op_dele n);
  }

(* ---------- master: assemble one connection's compartments ---------- *)

(* Degraded goodbye when the handler compartment is gone: best-effort,
   the channel itself may already be reset. *)
let send_degraded main ep =
  W.stat main "pop3.degraded";
  try Chan.write_string ep "-ERR internal server error, closing\r\n" with _ -> ()

(* The client handler's identity: uid 99 in an empty chroot.  Frozen into
   the worker image, and the base of every connection's hand-written
   handler grants. *)
let worker_identity () =
  let sc = W.sc_create () in
  W.sc_set_uid sc 99;
  W.sc_set_root sc "/var/empty";
  sc

(* The image every handler and callgate of [main]'s app is stamped from. *)
let image main = Service.image ~name:"pop3.worker" main (worker_identity ())

(* One retry by default: POP3 is line-oriented, so a fresh handler can
   greet the client again. *)
let worker_policy = Supervisor.policy ~max_restarts:1 ()

let serve_connection ?spawn ?(restart_policy = worker_policy) ?guard ?synth main ep =
  let spawn = match spawn with Some s -> s | None -> W.Stamp (image main) in
  Service.run_worker ?guard ~spawn ~policy:restart_policy
    ~degrade:(fun () -> send_degraded main ep)
    main ep
  @@ fun conn ->
  (* Per-connection tagged memory. *)
  let uid_tag = Service.tag conn ~name:"pop3.uid" ~pages:1 in
  let arg_tag = Service.tag conn ~name:"pop3.arg" ~pages:1 in
  let mail_tag = Service.tag conn ~name:"pop3.mail" ~pages:8 in
  let uid_block = W.smalloc main 64 uid_tag in
  let arg_block = W.smalloc main 512 arg_tag in
  let mail_block = W.smalloc main mail_size mail_tag in
  W.write_u8 main uid_block 0;
  (* The connection descriptor, created by the master. *)
  let fd = Service.fd conn in
  (* Callgates: login may write the uid block; mailbox may read it and fill
     the mail buffer.  Both inherit the master's root identity.  Under an
     enforced synthesized profile the contexts come from the profile
     instead of the hand-written grants. *)
  let conn_tags = [ uid_tag; arg_tag; mail_tag ] in
  let conn_fds = [ ("conn", fd) ] in
  let worker_sc =
    match Synth.sthread_sc synth ~name:"pop3.worker" ~tags:conn_tags ~fds:conn_fds main with
    | Some sc -> sc
    | None ->
        (* The client handler: default-deny plus exactly Figure 1's arrows. *)
        let sc = worker_identity () in
        W.sc_mem_add sc arg_tag Prot.RW;
        W.sc_mem_add sc mail_tag Prot.R;
        W.sc_fd_add sc fd Fd_table.perm_rw;
        sc
  in
  let login_cgsc =
    match Synth.gate_sc synth ~name:"pop3.login" ~tags:conn_tags main with
    | Some sc -> sc
    | None ->
        let sc = W.sc_create () in
        W.sc_mem_add sc uid_tag Prot.RW;
        sc
  in
  let login_gate =
    Service.gate conn worker_sc ~name:"pop3.login"
      ~entry:(Synth.wrap_gate synth ~name:"pop3.login" login_entry)
      ~cgsc:login_cgsc ~trusted:uid_block
  in
  let mbox_cgsc =
    match Synth.gate_sc synth ~name:"pop3.mailbox" ~tags:conn_tags main with
    | Some sc -> sc
    | None ->
        let sc = W.sc_create () in
        W.sc_mem_add sc uid_tag Prot.R;
        W.sc_mem_add sc mail_tag Prot.RW;
        sc
  in
  let mbox_gate =
    Service.gate conn worker_sc ~name:"pop3.mailbox"
      ~entry:(Synth.wrap_gate synth ~name:"pop3.mailbox" (mbox_entry ~mail_block))
      ~cgsc:mbox_cgsc ~trusted:uid_block
  in
  let worker_body ctx _ =
    let io =
      Lineio.create ~recv:(fun n -> W.fd_read ctx fd n) ~send:(fun b -> W.fd_write ctx fd b) ()
    in
    let backend = worker_backend ctx ~login_gate ~mbox_gate ~arg_tag ~arg_block ~mail_block in
    (* A successful login establishes the session: the guard's header
       deadline stops applying and the connection's heart beats. *)
    let backend =
      match guard with
      | None -> backend
      | Some c ->
          {
            backend with
            Pop3_proto.login =
              (fun ~user ~password ->
                let ok = backend.Pop3_proto.login ~user ~password in
                if ok then Guard.established c;
                ok);
          }
    in
    Pop3_proto.serve io backend;
    0
  in
  [ (worker_sc, Synth.wrap_sthread synth ~name:"pop3.worker" ~fds:conn_fds worker_body) ]

let service =
  {
    Service.name = "pop3";
    main = Fun.id;
    reject = Some "-ERR busy, try again later\r\n";
    image;
    serve = (fun main c -> ignore (serve_connection ~guard:c main (Guard.ep c)));
  }

let serve_sharded mains front = Service.serve_sharded service mains front
