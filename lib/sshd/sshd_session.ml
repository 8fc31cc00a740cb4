module W = Wedge_core.Wedge
module Kernel = Wedge_kernel.Kernel
module Cost_model = Wedge_sim.Cost_model
module Drbg = Wedge_crypto.Drbg
module Wire = Wedge_tls.Wire
module P = Ssh_proto

type priv_ops = {
  sign_kex : client_nonce:bytes -> server_nonce:bytes -> string;
  kex_decrypt : bytes -> bytes option;
  auth_password : user:string -> password:string -> bool;
  auth_pubkey : user:string -> pub:string -> proof:string -> session_fp:string -> bool;
  skey_challenge : user:string -> (int * string) option;
  skey_verify : user:string -> response:string -> bool;
}

let charge_cipher ctx n =
  let cm = (W.kernel (W.app_of ctx)).Kernel.costs in
  W.charge_app ctx (cm.Cost_model.hmac_fixed + (cm.Cost_model.cipher_per_byte * n))

let max_cmd_bytes = 4096
let max_upload_bytes = 16 lsl 20

let run ~ctx ~io ~wrng ~host_rsa_pub ~host_dsa_pub ~ops ~exploit () =
  try
    (* Version exchange. *)
    P.send_plain io (P.Version "WSSH-1.0-wedge-sshd");
    (match P.recv_plain io with P.Version _ -> () | _ -> failwith "expected version");
    (* Key exchange. *)
    let client_nonce =
      match P.recv_plain io with
      | P.Kexinit n -> n
      | _ -> failwith "expected kexinit"
    in
    let server_nonce = Drbg.bytes wrng 32 in
    let signature = ops.sign_kex ~client_nonce ~server_nonce in
    P.send_plain io
      (P.Kexreply { host_rsa = host_rsa_pub; host_dsa = host_dsa_pub; server_nonce; signature });
    let secret_ct =
      match P.recv_plain io with
      | P.Kexsecret ct -> ct
      | _ -> failwith "expected kexsecret"
    in
    let cm = (W.kernel (W.app_of ctx)).Kernel.costs in
    W.charge_app ctx cm.Cost_model.ssh_login_fixed;
    match ops.kex_decrypt secret_ct with
    | None -> ()
    | Some secret ->
        let keys = P.derive_keys ~secret ~client_nonce ~server_nonce ~side:`Server in
        let fp = P.session_fingerprint ~secret ~client_nonce ~server_nonce in
        let send m =
          charge_cipher ctx (Bytes.length (P.marshal m));
          P.send_sealed io keys m
        in
        let authed = ref false in
        let skey_user = ref None in
        let upload = Buffer.create 256 in
        let upload_target = ref None in
        let rec loop () =
          match P.recv_sealed io keys with
          | Error `Eof -> ()
          | Error `Mac_fail -> loop () (* forged record: drop *)
          | Ok msg -> (
              charge_cipher ctx (Bytes.length (P.marshal msg));
              match msg with
              | P.Auth_password { user; password } ->
                  let ok = ops.auth_password ~user ~password in
                  if ok then authed := true;
                  send (P.Auth_result ok);
                  loop ()
              | P.Auth_pubkey { user; pub; proof } ->
                  let ok = ops.auth_pubkey ~user ~pub ~proof ~session_fp:fp in
                  if ok then authed := true;
                  send (P.Auth_result ok);
                  loop ()
              | P.Skey_start { user } ->
                  (match ops.skey_challenge ~user with
                  | Some (seq, seed) ->
                      skey_user := Some user;
                      send (P.Skey_challenge { seq; seed })
                  | None ->
                      (* vulnerable behaviour: unknown users get refused,
                         leaking their nonexistence *)
                      send (P.Auth_result false));
                  loop ()
              | P.Skey_response { response } ->
                  let ok =
                    match !skey_user with
                    | Some user -> ops.skey_verify ~user ~response
                    | None -> false
                  in
                  if ok then authed := true;
                  send (P.Auth_result ok);
                  loop ()
              | P.Exec cmd when String.length cmd > max_cmd_bytes ->
                  (* Oversized command: reject and disconnect — the
                     session must not buffer an attacker-sized string. *)
                  send (P.Data (Bytes.of_string "command too long"))
              | P.Exec cmd ->
                  (if cmd = "xploit" then begin
                     (* the modelled parser vulnerability *)
                     (match exploit with Some payload -> payload ctx | None -> ());
                     send (P.Data (Bytes.of_string "unknown command"))
                   end
                   else if not !authed then send (P.Data (Bytes.of_string "permission denied"))
                   else
                     match String.split_on_char ' ' cmd with
                     | [ "shell" ] ->
                         send
                           (P.Data
                              (Bytes.of_string
                                 (Printf.sprintf "Welcome, uid %d" (W.getuid ctx))))
                     | [ "scp"; path; _size ] ->
                         upload_target := Some path;
                         Buffer.clear upload;
                         send (P.Data (Bytes.of_string "ready"))
                     | _ -> send (P.Data (Bytes.of_string "unknown command")));
                  loop ()
              | P.Data chunk
                when !authed && !upload_target <> None
                     && Buffer.length upload + Bytes.length chunk > max_upload_bytes ->
                  (* Upload quota: drop the transfer and disconnect rather
                     than grow the staging buffer without bound. *)
                  Buffer.clear upload;
                  upload_target := None;
                  send (P.Data (Bytes.of_string "upload too large"))
              | P.Data chunk ->
                  if !authed && !upload_target <> None then Buffer.add_bytes upload chunk;
                  loop ()
              | P.Eof ->
                  (match !upload_target with
                  | Some path when !authed ->
                      let data = Buffer.contents upload in
                      let cm = (W.kernel (W.app_of ctx)).Kernel.costs in
                      W.charge_app ctx (cm.Cost_model.disk_per_byte * String.length data);
                      let ok = Result.is_ok (W.vfs_write ctx path data) in
                      send (P.Data (Bytes.of_string (if ok then "saved" else "write failed")));
                      upload_target := None
                  | _ -> ());
                  loop ()
              | P.Disconnect -> ()
              | P.Version _ | P.Kexinit _ | P.Kexreply _ | P.Kexsecret _
              | P.Skey_challenge _ | P.Auth_result _ ->
                  loop ())
        in
        loop ()
  with
  | Wire.Closed -> ()
  | Wire.Malformed _ | Failure _ -> ()
