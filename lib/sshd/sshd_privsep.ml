module W = Wedge_core.Wedge
module Kernel = Wedge_kernel.Kernel
module Cost_model = Wedge_sim.Cost_model
module Chan = Wedge_net.Chan
module Guard = Wedge_net.Guard
module Fd_table = Wedge_kernel.Fd_table
module Drbg = Wedge_crypto.Drbg
module Rsa = Wedge_crypto.Rsa
module Dsa = Wedge_crypto.Dsa
module Wire = Wedge_tls.Wire
module Supervisor = Wedge_core.Supervisor
module P = Ssh_proto

type monitor = {
  m_getpw : string -> string option;
  m_authpass : user:string -> password:string -> bool;
  m_sign : client_nonce:bytes -> server_nonce:bytes -> string;
  m_decrypt : bytes -> bytes option;
  m_skey_challenge : user:string -> (int * string) option;
  m_skey_verify : user:string -> response:string -> bool;
  m_setuid : slave_pid:int -> uid:int -> unit;
}

let io_of_fd ctx fd =
  Wire.io_of_fns
    ~recv:(fun n ->
      let b = W.fd_read ctx fd n in
      if Bytes.length b = 0 then None else Some b)
    ~send:(fun b -> W.fd_write ctx fd b)

(* The monitor: closures executing in the privileged main process.  The
   IPC marshalling cost is charged per call. *)
let monitor (env : Sshd_env.t) =
  let main = env.Sshd_env.main in
  let charge_ipc () =
    let cm = (W.kernel env.Sshd_env.app).Kernel.costs in
    W.charge_app main (2 * cm.Cost_model.context_switch)
  in
  let mono_ops = Sshd_mono.ops env main in
  {
    m_getpw =
      (fun user ->
        charge_ipc ();
        (* The information leak: NULL vs the passwd structure. *)
        match W.vfs_read main Sshd_env.shadow_path with
        | Error _ -> None
        | Ok shadow -> Sshd_env.lookup_shadow shadow ~user);
    m_authpass =
      (fun ~user ~password ->
        charge_ipc ();
        (* PAM scratch lands in the monitor's heap. *)
        mono_ops.Sshd_session.auth_password ~user ~password);
    m_sign =
      (fun ~client_nonce ~server_nonce ->
        charge_ipc ();
        mono_ops.Sshd_session.sign_kex ~client_nonce ~server_nonce);
    m_decrypt =
      (fun ct ->
        charge_ipc ();
        mono_ops.Sshd_session.kex_decrypt ct);
    m_skey_challenge =
      (fun ~user ->
        charge_ipc ();
        (* Vulnerable pre-fix behaviour: no challenge for unknown users. *)
        mono_ops.Sshd_session.skey_challenge ~user);
    m_skey_verify =
      (fun ~user ~response ->
        charge_ipc ();
        mono_ops.Sshd_session.skey_verify ~user ~response);
    m_setuid =
      (fun ~slave_pid ~uid ->
        charge_ipc ();
        W.set_identity main ~target_pid:slave_pid ~uid ());
  }

(* The slave's two-step password authentication over monitor IPC —
   exactly the flow whose first step leaks username validity. *)
let slave_ops (env : Sshd_env.t) monitor slave_ctx =
  {
    Sshd_session.sign_kex = (fun ~client_nonce ~server_nonce -> monitor.m_sign ~client_nonce ~server_nonce);
    kex_decrypt = (fun ct -> monitor.m_decrypt ct);
    auth_password =
      (fun ~user ~password ->
        match monitor.m_getpw user with
        | None -> false (* step 1 already told us the user is bogus *)
        | Some _line ->
            let ok = monitor.m_authpass ~user ~password in
            if ok then begin
              match Sshd_env.find_user env user with
              | Some u -> monitor.m_setuid ~slave_pid:(W.pid slave_ctx) ~uid:u.Sshd_env.uid
              | None -> ()
            end;
            ok);
    auth_pubkey =
      (fun ~user ~pub ~proof ~session_fp ->
        (* Delegated wholesale to the monitor in real privsep; modelled via
           the monolithic logic under monitor privileges. *)
        let ok = (Sshd_mono.ops env env.Sshd_env.main).Sshd_session.auth_pubkey ~user ~pub ~proof ~session_fp in
        if ok then
          (match Sshd_env.find_user env user with
          | Some u -> monitor.m_setuid ~slave_pid:(W.pid slave_ctx) ~uid:u.Sshd_env.uid
          | None -> ());
        ok);
    skey_challenge = (fun ~user -> monitor.m_skey_challenge ~user);
    skey_verify =
      (fun ~user ~response ->
        let ok = monitor.m_skey_verify ~user ~response in
        if ok then
          (match Sshd_env.find_user env user with
          | Some u -> monitor.m_setuid ~slave_pid:(W.pid slave_ctx) ~uid:u.Sshd_env.uid
          | None -> ());
        ok);
  }

let serve_connection (env : Sshd_env.t) ep =
  let main = env.Sshd_env.main in
  let monitor = monitor env in
  let fd = W.add_endpoint main (Chan.to_endpoint ep) Fd_table.perm_rw in
  let wrng = Drbg.create ~seed:(Drbg.next64 env.Sshd_env.rng) in
  let slave_main slave =
        (* The slave drops privileges after the fork — but its address
           space is already a copy of the monitor's. *)
        W.set_identity slave ~target_pid:(W.pid slave) ~uid:99 ~root:"/var/empty" ();
        let io = io_of_fd slave fd in
        Sshd_session.run ~ctx:slave ~io ~wrng
          ~host_rsa_pub:(Rsa.pub_to_string env.Sshd_env.host_rsa.Rsa.pub)
          ~host_dsa_pub:(Dsa.pub_to_string env.Sshd_env.host_dsa.Dsa.pub)
          ~ops:(slave_ops env monitor slave) ();
        0
  in
  let outcome =
    Supervisor.supervise ~max_restarts:0 main
      (fun () -> W.fork main slave_main)
  in
  (* An SSH session whose slave died mid-protocol cannot be resumed in
     plaintext: the degraded answer is a disconnect, monitor intact. *)
  (match outcome with
  | Supervisor.Done _ -> ()
  | Supervisor.Gave_up _ -> W.stat main "sshd.degraded");
  W.fd_close main fd;
  Chan.close ep
