module W = Wedge_core.Wedge
module Prot = Wedge_kernel.Prot
module Fd_table = Wedge_kernel.Fd_table
module Guard = Wedge_net.Guard
module Drbg = Wedge_crypto.Drbg
module Wire = Wedge_tls.Wire
module Record = Wedge_tls.Record
module Session = Wedge_tls.Session
module Handshake = Wedge_tls.Handshake

module Supervisor = Wedge_core.Supervisor
module Synth = Wedge_crowbar.Synth
module Service = Wedge_net.Service

let io_of_fd ctx fd =
  Wire.io_of_fns
    ~recv:(fun n ->
      let b = W.fd_read ctx fd n in
      if Bytes.length b = 0 then None else Some b)
    ~send:(fun b -> W.fd_write ctx fd b)

(* Argument-buffer protocol for the setup_session_key callgate.  The
   worker writes a request into the [arg_size]-byte block, the gate
   overwrites it with the reply. *)
let arg_size = 4096
let op_new_session = 1
let op_premaster = 2
let op_resume = 3

(* The setup_session_key callgate (Figure 2).  Runs with read access to the
   private-key tag and read-write on the per-connection state tag; its
   essential property is that the server random is generated HERE, from
   the gate's own entropy — the caller supplies only public inputs. *)
let setup_session_key_entry (env : Httpd_env.t) gctx ~trusted:conn_block ~arg =
  let op = W.read_u8 gctx arg in
  if op = op_new_session then begin
    let cr = W.read_bytes gctx (arg + 1) 32 in
    let sr = Drbg.bytes env.Httpd_env.rng 32 in
    let sid = Bytes.to_string (Drbg.bytes env.Httpd_env.rng Handshake.sid_len) in
    Conn_state.set_randoms gctx conn_block ~cr ~sr ~sid;
    W.write_bytes gctx (arg + 1) sr;
    W.write_lv gctx (arg + 33) sid;
    1
  end
  else if op = op_premaster then begin
    let ct = W.read_lv gctx (arg + 1) in
    Httpd_env.charge gctx Httpd_env.Rsa_priv;
    let priv = Httpd_env.read_priv gctx env in
    match Wedge_crypto.Rsa.decrypt priv (Bytes.of_string ct) with
    | Some pm when Bytes.length pm = Handshake.premaster_len ->
        let master = Handshake.derive_master ~premaster:pm in
        Conn_state.set_master gctx conn_block master;
        Sess_store.store gctx env.Httpd_env.scache
          ~sid:(Conn_state.sid gctx conn_block) ~master;
        (match Conn_state.ensure_keys gctx conn_block with
        | Some keys ->
            (* Figure 2: the session key is returned to the worker. *)
            W.write_u8 gctx (arg + 1) 1;
            W.write_bytes gctx (arg + 2) master;
            W.write_lv gctx (arg + 34) (Bytes.to_string (Record.to_bytes keys));
            1
        | None -> 0)
    | Some _ | None ->
        W.write_u8 gctx (arg + 1) 0;
        0
  end
  else if op = op_resume then begin
    let n = W.read_u8 gctx (arg + 1) in
    let sid = W.read_string gctx (arg + 2) n in
    let cr = W.read_bytes gctx (arg + 2 + n) 32 in
    match Sess_store.lookup gctx env.Httpd_env.scache ~sid with
    | None ->
        W.write_u8 gctx (arg + 1) 0;
        0
    | Some master ->
        let sr = Drbg.bytes env.Httpd_env.rng 32 in
        Conn_state.set_randoms gctx conn_block ~cr ~sr ~sid;
        Conn_state.set_master gctx conn_block master;
        (match Conn_state.ensure_keys gctx conn_block with
        | Some keys ->
            W.write_u8 gctx (arg + 1) 1;
            W.write_bytes gctx (arg + 2) sr;
            W.write_bytes gctx (arg + 34) master;
            W.write_lv gctx (arg + 66) (Bytes.to_string (Record.to_bytes keys));
            1
        | None -> 0)
  end
  else -1

(* Worker-side handshake callbacks: public inputs go in, the session key
   comes back through the argument buffer. *)
let worker_ops ctx ~gate ~arg_tag ~arg_block ~master_ref ~keys_ref ~finished_ref =
  let perms = W.sc_create () in
  W.sc_mem_add perms arg_tag Prot.RW;
  {
    Handshake.new_session =
      (fun ~client_random ->
        W.write_u8 ctx arg_block op_new_session;
        W.write_bytes ctx (arg_block + 1) client_random;
        ignore (W.cgate ctx gate ~perms ~arg:arg_block);
        let sr = W.read_bytes ctx (arg_block + 1) 32 in
        let sid = W.read_lv ctx (arg_block + 33) in
        (sid, sr));
    resume_session =
      (fun ~sid ~client_random ->
        W.write_u8 ctx arg_block op_resume;
        W.write_u8 ctx (arg_block + 1) (String.length sid);
        W.write_string ctx (arg_block + 2) sid;
        W.write_bytes ctx (arg_block + 2 + String.length sid) client_random;
        if W.cgate ctx gate ~perms ~arg:arg_block = 1 then begin
          let sr = W.read_bytes ctx (arg_block + 2) 32 in
          master_ref := Some (W.read_bytes ctx (arg_block + 34) 32);
          keys_ref := Some (Record.of_bytes (Bytes.of_string (W.read_lv ctx (arg_block + 66))));
          Some sr
        end
        else None);
    set_premaster =
      (fun ~premaster_ct ->
        (* The client sizes the ciphertext: one that does not fit the
           argument block fails the key exchange unwritten. *)
        1 + 4 + Bytes.length premaster_ct <= arg_size
        && begin
             W.write_u8 ctx arg_block op_premaster;
             W.write_lv ctx (arg_block + 1) (Bytes.to_string premaster_ct);
             W.cgate ctx gate ~perms ~arg:arg_block = 1
           end
        && begin
             master_ref := Some (W.read_bytes ctx (arg_block + 2) 32);
             keys_ref :=
               Some (Record.of_bytes (Bytes.of_string (W.read_lv ctx (arg_block + 34))));
             true
           end);
    receive_finished =
      (fun ~transcript_hash ~record ->
        match (!master_ref, !keys_ref) with
        | Some master, Some keys -> (
            Httpd_env.charge ctx Httpd_env.Mac;
            Httpd_env.charge ctx (Httpd_env.Cipher (Bytes.length record));
            match Record.open_ keys record with
            | None -> false
            | Some payload ->
                let expect = Handshake.finished_payload ~master ~side:`Client ~transcript_hash in
                if Bytes.equal payload expect then begin
                  finished_ref :=
                    Handshake.server_finished_payload ~master ~transcript_hash
                      ~client_finished:payload;
                  true
                end
                else false)
        | _ -> false);
    send_finished =
      (fun () ->
        match !keys_ref with
        | Some keys ->
            Httpd_env.charge ctx Httpd_env.Mac;
            Record.seal keys !finished_ref
        | None -> invalid_arg "send_finished before keys");
  }

(* The worker's identity: uid 33 inside the docroot chroot, under the
   env's worker SELinux context when set.  Frozen into the worker image,
   and the base of every connection's hand-written worker grants. *)
let worker_identity (env : Httpd_env.t) =
  let sc = W.sc_create () in
  W.sc_set_uid sc 33;
  W.sc_set_root sc Httpd_env.docroot;
  (match env.Httpd_env.worker_sid with Some sid -> W.sc_sel_context sc sid | None -> ());
  sc

(* The image every worker and callgate of the env's app is stamped from:
   one copy of the 2000-page Apache image, not one per compartment. *)
let image (env : Httpd_env.t) =
  Service.image ~name:"httpd.worker" env.Httpd_env.main (worker_identity env)

let serve_connection ?spawn ?guard ?max_request_bytes ?worker_limits ?synth (env : Httpd_env.t)
    ep =
  let main = env.Httpd_env.main in
  let spawn = match spawn with Some s -> s | None -> W.Stamp (image env) in
  Service.run_worker ?guard ~spawn ~policy:Supervisor.default_policy
    ~degrade:(fun () -> Httpd_env.send_degraded ~server:"httpd" main ep)
    main ep
  @@ fun conn ->
  let conn_tag = Service.tag conn ~name:"httpd.conn" ~pages:1 in
  let arg_tag = Service.tag conn ~name:"httpd.arg" ~pages:2 in
  let conn_block = W.smalloc main Conn_state.size conn_tag in
  Conn_state.init main conn_block;
  let arg_block = W.smalloc main arg_size arg_tag in
  let fd = Service.fd conn in
  (* In enforce mode the synthesized profile supplies both security
     contexts; the hand-written grants below are the fallback (and the
     recording/complain baseline). *)
  let conn_tags = [ conn_tag; arg_tag ] in
  let conn_fds = [ ("conn", fd) ] in
  let worker_sc =
    match Synth.sthread_sc synth ~name:"httpd.worker" ~tags:conn_tags ~fds:conn_fds main with
    | Some sc -> sc
    | None ->
        let sc = worker_identity env in
        W.sc_mem_add sc arg_tag Prot.RW;
        W.sc_fd_add sc fd Fd_table.perm_rw;
        sc
  in
  (match worker_limits with Some l -> W.sc_set_rlimit worker_sc l | None -> ());
  let cgsc =
    match Synth.gate_sc synth ~name:"setup_session_key" ~tags:conn_tags main with
    | Some sc -> sc
    | None ->
        let sc = W.sc_create () in
        W.sc_mem_add sc env.Httpd_env.key_tag Prot.R;
        W.sc_mem_add sc conn_tag Prot.RW;
        W.sc_mem_add sc (Sess_store.tag env.Httpd_env.scache) Prot.RW;
        sc
  in
  let gate =
    Service.gate conn worker_sc ~name:"setup_session_key"
      ~entry:(Synth.wrap_gate synth ~name:"setup_session_key" (setup_session_key_entry env))
      ~cgsc ~trusted:conn_block
  in
  let worker_body ctx _ =
    let io = io_of_fd ctx fd in
    let master_ref = ref None and keys_ref = ref None and finished_ref = ref Bytes.empty in
    let ops = worker_ops ctx ~gate ~arg_tag ~arg_block ~master_ref ~keys_ref ~finished_ref in
    match Handshake.server_handshake ~ops ~cert:(Httpd_env.cert env) io with
    | Error _ -> 1
    | Ok _sid -> (
        (match guard with Some c -> Guard.established c | None -> ());
        match !keys_ref with
        | None -> 1
        | Some keys -> (
            match Handshake.recv_data io keys with
            | Error _ -> 1
            | Ok req
              when match max_request_bytes with
                   | Some m -> Bytes.length req > m
                   | None -> false ->
                (* Oversized request: answer inside the session (the
                   keys are established) with 413 and stop. *)
                let resp = Http.format_response Http.too_large in
                Httpd_env.charge ctx Httpd_env.Mac;
                Handshake.send_data io keys (Bytes.of_string resp);
                0
            | Ok req ->
                Httpd_env.charge ctx (Httpd_env.Cipher (Bytes.length req));
                let resp = Httpd_env.handle_request ctx (Bytes.to_string req) in
                Httpd_env.charge ctx (Httpd_env.Cipher (String.length resp));
                Httpd_env.charge ctx Httpd_env.Mac;
                Handshake.send_data io keys (Bytes.of_string resp);
                env.Httpd_env.served <- env.Httpd_env.served + 1;
                0))
  in
  [ (worker_sc, Synth.wrap_sthread synth ~name:"httpd.worker" ~fds:conn_fds worker_body) ]

(* The served request-size cap: a decrypted request over 4 KiB gets 413. *)
let max_request_bytes = 4096

let serve max_request_bytes env c =
  ignore (serve_connection ~guard:c ~max_request_bytes env (Guard.ep c))

(* A rejected connection gets a plaintext 503: the TLS session never
   started, so plaintext is all there is. *)
let service =
  {
    Service.name = "httpd";
    main = (fun (env : Httpd_env.t) -> env.Httpd_env.main);
    reject = Some (Http.format_response Http.service_unavailable);
    image;
    serve = serve max_request_bytes;
  }

let serve_sharded ?(max_request_bytes = max_request_bytes) envs front =
  Service.serve_sharded { service with serve = serve max_request_bytes } envs front
