module W = Wedge_core.Wedge
module Chan = Wedge_net.Chan
module Fd_table = Wedge_kernel.Fd_table
module Wire = Wedge_tls.Wire
module Handshake = Wedge_tls.Handshake
module Record = Wedge_tls.Record

let io_of_fd ctx fd =
  Wire.io_of_fns
    ~recv:(fun n ->
      let b = W.fd_read ctx fd n in
      if Bytes.length b = 0 then None else Some b)
    ~send:(fun b -> W.fd_write ctx fd b)

(* Wrap handshake callbacks with simulated crypto costs. *)
let charged_ops ctx (ops : Handshake.server_ops) =
  {
    ops with
    Handshake.set_premaster =
      (fun ~premaster_ct ->
        Httpd_env.charge ctx Httpd_env.Rsa_priv;
        ops.Handshake.set_premaster ~premaster_ct);
    receive_finished =
      (fun ~transcript_hash ~record ->
        Httpd_env.charge ctx Httpd_env.Mac;
        Httpd_env.charge ctx (Httpd_env.Cipher (Bytes.length record));
        ops.Handshake.receive_finished ~transcript_hash ~record);
    send_finished =
      (fun () ->
        Httpd_env.charge ctx Httpd_env.Mac;
        ops.Handshake.send_finished ());
  }

let serve_connection ?exploit (env : Httpd_env.t) ep =
  let ctx = env.Httpd_env.main in
  let fd = W.add_endpoint ctx (Chan.to_endpoint ep) Fd_table.perm_rw in
  (* No compartment boundary protects the monolithic server, so the fault
     class (injected channel resets, frame exhaustion) is contained here by
     hand: degrade this connection with a plaintext 500 and keep the
     process alive — the comparison against the partitioned layouts stays
     about privilege, not about who survives a crash. *)
  (try
     let io = io_of_fd ctx fd in
     let state = Handshake.plain_state_create () in
     let priv = Httpd_env.read_priv ctx env in
     let ops =
       charged_ops ctx
         (Handshake.plain_ops ~rng:env.Httpd_env.rng ~priv ~cache:env.Httpd_env.cache ~state)
     in
     match Handshake.server_handshake ~ops ~cert:(Httpd_env.cert env) io with
     | Error _ -> ()
     | Ok _sid -> (
         let keys = Handshake.keys_of_plain_state state in
         match Handshake.recv_data io keys with
         | Error _ -> ()
         | Ok req ->
             Httpd_env.charge ctx (Httpd_env.Cipher (Bytes.length req));
             let resp = Httpd_env.handle_request ctx ~exploit (Bytes.to_string req) in
             Httpd_env.charge ctx (Httpd_env.Cipher (String.length resp));
             Httpd_env.charge ctx Httpd_env.Mac;
             Handshake.send_data io keys (Bytes.of_string resp);
             env.Httpd_env.served <- env.Httpd_env.served + 1)
   with e when W.fault_reason e <> None ->
     W.stat ctx "httpd.degraded";
     (try Chan.write_string ep (Http.format_response Http.internal_error) with _ -> ()));
  W.fd_close ctx fd;
  Chan.close ep
