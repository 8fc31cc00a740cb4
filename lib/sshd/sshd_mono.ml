module W = Wedge_core.Wedge
module Kernel = Wedge_kernel.Kernel
module Cost_model = Wedge_sim.Cost_model
module Chan = Wedge_net.Chan
module Fd_table = Wedge_kernel.Fd_table
module Drbg = Wedge_crypto.Drbg
module Rsa = Wedge_crypto.Rsa
module Dsa = Wedge_crypto.Dsa
module Wire = Wedge_tls.Wire
module P = Ssh_proto

let io_of_fd ctx fd =
  Wire.io_of_fns
    ~recv:(fun n ->
      let b = W.fd_read ctx fd n in
      if Bytes.length b = 0 then None else Some b)
    ~send:(fun b -> W.fd_write ctx fd b)

let charge_rsa ctx =
  W.charge_app ctx (W.kernel (W.app_of ctx)).Kernel.costs.Cost_model.rsa_private_op

let charge_dsa ctx =
  W.charge_app ctx (W.kernel (W.app_of ctx)).Kernel.costs.Cost_model.rsa_public_op

(* In-process privileged ops: everything reads the server's own memory and
   runs as root. *)
let ops (env : Sshd_env.t) ctx =
  let skey_db () =
    match W.vfs_read ctx Sshd_env.skey_path with Ok db -> db | Error _ -> ""
  in
  {
    Sshd_session.sign_kex =
      (fun ~client_nonce ~server_nonce ->
        charge_dsa ctx;
        let binding =
          P.kex_binding ~client_nonce ~server_nonce
            ~host_rsa:(Rsa.pub_to_string env.Sshd_env.host_rsa.Rsa.pub)
            ~host_dsa:(Dsa.pub_to_string env.Sshd_env.host_dsa.Dsa.pub)
        in
        Dsa.signature_to_string (Dsa.sign env.Sshd_env.rng env.Sshd_env.host_dsa binding));
    kex_decrypt =
      (fun ct ->
        charge_rsa ctx;
        Rsa.decrypt env.Sshd_env.host_rsa ct);
    auth_password =
      (fun ~user ~password ->
        match W.vfs_read ctx Sshd_env.shadow_path with
        | Error _ -> false
        | Ok shadow -> (
            match Sshd_env.lookup_shadow shadow ~user with
            | None -> false
            | Some line -> Pam.authenticate ctx ~shadow_line:line ~user ~password));
    auth_pubkey =
      (fun ~user ~pub ~proof ~session_fp ->
        match W.vfs_read ctx ("/home/" ^ user ^ "/.ssh/authorized_keys") with
        | Error _ -> false
        | Ok keys ->
            List.mem pub (String.split_on_char '\n' keys)
            && (match (Dsa.pub_of_string pub, Dsa.signature_of_string proof) with
               | Some pk, Some signature ->
                   charge_dsa ctx;
                   Dsa.verify pk (P.auth_proof_binding ~session_fp ~user) ~signature
               | _ -> false));
    skey_challenge =
      (fun ~user ->
        let db = skey_db () in
        String.split_on_char '\n' db
        |> List.find_map (fun line ->
               match Skey.entry_of_line line with
               | Some e when e.Skey.user = user && not (Skey.exhausted e) ->
                   Some (Skey.challenge e)
               | _ -> None));
    skey_verify =
      (fun ~user ~response ->
        let db = skey_db () in
        let lines = String.split_on_char '\n' db in
        let updated = ref false in
        let lines' =
          List.map
            (fun line ->
              match Skey.entry_of_line line with
              | Some e when e.Skey.user = user -> (
                  match Skey.verify e ~response with
                  | Some e' ->
                      updated := true;
                      Skey.entry_to_line e'
                  | None -> line)
              | _ -> line)
            lines
        in
        if !updated then
          ignore (W.vfs_write ctx Sshd_env.skey_path (String.concat "\n" lines'));
        !updated);
  }

let serve_connection (env : Sshd_env.t) ep =
  let ctx = env.Sshd_env.main in
  let fd = W.add_endpoint ctx (Chan.to_endpoint ep) Fd_table.perm_rw in
  let io = io_of_fd ctx fd in
  let wrng = Drbg.create ~seed:(Drbg.next64 env.Sshd_env.rng) in
  Sshd_session.run ~ctx ~io ~wrng
    ~host_rsa_pub:(Rsa.pub_to_string env.Sshd_env.host_rsa.Rsa.pub)
    ~host_dsa_pub:(Dsa.pub_to_string env.Sshd_env.host_dsa.Dsa.pub)
    ~ops:(ops env ctx) ();
  W.fd_close ctx fd;
  Chan.close ep
