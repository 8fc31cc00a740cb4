module W = Wedge_core.Wedge
module Chan = Wedge_net.Chan
module Lineio = Wedge_net.Lineio
module Fd_table = Wedge_kernel.Fd_table

(* Direct-access backend: everything runs with the caller's (full)
   privileges. *)
let backend ctx =
  let authed = ref None in
  let mails () =
    match !authed with
    | None -> Error Pop3_proto.Unauthenticated
    | Some (name, _uid) -> (
        match W.vfs_readdir ctx (Pop3_env.maildir name) with
        | Ok files ->
            Ok
              (List.filter_map
                 (fun f ->
                   match String.split_on_char '.' f with
                   | [ n; "eml" ] -> int_of_string_opt n
                   | _ -> None)
                 files
              |> List.sort compare
              |> List.map (fun n -> (n, name)))
        | Error _ -> Ok [])
  in
  let mail_path name n = Printf.sprintf "%s/%d.eml" (Pop3_env.maildir name) n in
  {
    Pop3_proto.login =
      (fun ~user ~password ->
        match W.vfs_read ctx Pop3_env.passwd_path with
        | Error _ -> false
        | Ok passwd -> (
            match Pop3_env.lookup_line ~passwd_file:passwd ~user with
            | None -> false
            | Some line -> (
                match Pop3_env.check_password ~passwd_line:line ~user ~password with
                | Some uid ->
                    authed := Some (user, uid);
                    true
                | None -> false)));
    stat =
      (fun () ->
        Result.map
          (fun entries ->
            let total =
              List.fold_left
                (fun acc (n, name) ->
                  match W.vfs_read ctx (mail_path name n) with
                  | Ok body -> acc + String.length body
                  | Error _ -> acc)
                0 entries
            in
            (List.length entries, total))
          (mails ()));
    list_mails =
      (fun () ->
        Result.map
          (List.filter_map (fun (n, name) ->
               match W.vfs_read ctx (mail_path name n) with
               | Ok body -> Some (n, String.length body)
               | Error _ -> None))
          (mails ()));
    retr =
      (fun n ->
        match !authed with
        | None -> Error Pop3_proto.Unauthenticated
        | Some (name, _) ->
            Result.map_error
              (fun _ -> Pop3_proto.No_such_message)
              (W.vfs_read ctx (mail_path name n)));
    dele =
      (fun n ->
        match !authed with
        | None -> Error Pop3_proto.Unauthenticated
        | Some (name, _) ->
            Result.map_error
              (fun _ -> Pop3_proto.No_such_message)
              (Wedge_kernel.Vfs.unlink (W.kernel (W.app_of ctx)).Wedge_kernel.Kernel.vfs
                 ~root:"/" ~uid:0 (mail_path name n)));
  }

let serve_connection ctx ep =
  let fd = W.add_endpoint ctx (Chan.to_endpoint ep) Fd_table.perm_rw in
  let io =
    Lineio.create ~recv:(fun n -> W.fd_read ctx fd n) ~send:(fun b -> W.fd_write ctx fd b) ()
  in
  Pop3_proto.serve io (backend ctx);
  W.fd_close ctx fd;
  Chan.close ep
