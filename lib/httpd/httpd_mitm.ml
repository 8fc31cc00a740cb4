module W = Wedge_core.Wedge
module Prot = Wedge_kernel.Prot
module Fd_table = Wedge_kernel.Fd_table
module Guard = Wedge_net.Guard
module Service = Wedge_net.Service
module Drbg = Wedge_crypto.Drbg
module Rsa = Wedge_crypto.Rsa
module Wire = Wedge_tls.Wire
module Record = Wedge_tls.Record
module Handshake = Wedge_tls.Handshake

(* The handshake's argument block and the client handler's data block.
   A field whose size the client picks is checked against its slot
   before it is written — a length-prefixed string at [off] fits when
   [off + 4 + len <= size] — and one that does not fit is refused with
   the protocol's own failure, never written past the block. *)
let arg_size = 4096
let data_size = 20000
let lv_fits ~size ~off len = off + 4 + len <= size

let io_of_fd ctx fd =
  Wire.io_of_fns
    ~recv:(fun n ->
      let b = W.fd_read ctx fd n in
      if Bytes.length b = 0 then None else Some b)
    ~send:(fun b -> W.fd_write ctx fd b)

(* ---------------- handshake-phase callgates (Figure 4) ---------------- *)

(* new_session / resume: the server random is generated inside the gate —
   the network-facing caller supplies only the client's public values. *)
let new_session_entry (env : Httpd_env.t) gctx ~trusted:conn_block ~arg =
  let cr = W.read_bytes gctx (arg + 1) 32 in
  let sr = Drbg.bytes env.Httpd_env.rng 32 in
  let sid = Bytes.to_string (Drbg.bytes env.Httpd_env.rng Handshake.sid_len) in
  Conn_state.init gctx conn_block;
  Conn_state.set_randoms gctx conn_block ~cr ~sr ~sid;
  W.write_bytes gctx (arg + 1) sr;
  W.write_lv gctx (arg + 33) sid;
  1

let resume_entry (env : Httpd_env.t) gctx ~trusted:conn_block ~arg =
  let n = W.read_u8 gctx (arg + 1) in
  let sid = W.read_string gctx (arg + 2) n in
  let cr = W.read_bytes gctx (arg + 2 + n) 32 in
  match Sess_store.lookup gctx env.Httpd_env.scache ~sid with
  | None -> 0
  | Some master ->
      let sr = Drbg.bytes env.Httpd_env.rng 32 in
      Conn_state.init gctx conn_block;
      Conn_state.set_randoms gctx conn_block ~cr ~sr ~sid;
      Conn_state.set_master gctx conn_block master;
      W.write_bytes gctx (arg + 2) sr;
      1

(* setup_session_key: the only code with read access to the private key.
   Returns a boolean; the master secret never leaves the conn tag. *)
let setup_session_key_entry (env : Httpd_env.t) gctx ~trusted:conn_block ~arg =
  let ct = W.read_lv gctx (arg + 1) in
  Httpd_env.charge gctx Httpd_env.Rsa_priv;
  let priv = Httpd_env.read_priv gctx env in
  match Rsa.decrypt priv (Bytes.of_string ct) with
  | Some pm when Bytes.length pm = Handshake.premaster_len ->
      let master = Handshake.derive_master ~premaster:pm in
      Conn_state.set_master gctx conn_block master;
      Sess_store.store gctx env.Httpd_env.scache
        ~sid:(Conn_state.sid gctx conn_block) ~master;
      1
  | Some _ | None -> 0

(* receive_finished: decrypts and verifies the client's Finished; prepares
   the server's Finished payload into finished-state memory.  The only
   value returned to the caller is success/failure — handing ciphertext to
   this gate never yields plaintext (§5.1.2). *)
let receive_finished_entry gctx ~trusted ~arg =
  let conn_block = W.read_u64 gctx trusted in
  let fin_block = W.read_u64 gctx (trusted + 8) in
  let th = W.read_bytes gctx (arg + 1) 32 in
  let record = Bytes.of_string (W.read_lv gctx (arg + 33)) in
  Httpd_env.charge gctx Httpd_env.Mac;
  Httpd_env.charge gctx (Httpd_env.Cipher (Bytes.length record));
  match Conn_state.ensure_keys gctx conn_block with
  | None -> 0
  | Some keys -> (
      match Record.open_ keys record with
      | None ->
          Conn_state.store_keys gctx conn_block keys;
          0
      | Some payload -> (
          Conn_state.store_keys gctx conn_block keys;
          match Conn_state.master gctx conn_block with
          | None -> 0
          | Some master ->
              let expect = Handshake.finished_payload ~master ~side:`Client ~transcript_hash:th in
              if Bytes.equal payload expect then begin
                let sf =
                  Handshake.server_finished_payload ~master ~transcript_hash:th
                    ~client_finished:payload
                in
                W.write_lv gctx fin_block (Bytes.to_string sf);
                1
              end
              else 0))

(* send_finished: takes no caller input at all; seals the prepared payload
   from finished state and returns it via the argument buffer. *)
let send_finished_entry gctx ~trusted ~arg =
  let conn_block = W.read_u64 gctx trusted in
  let fin_block = W.read_u64 gctx (trusted + 8) in
  Httpd_env.charge gctx Httpd_env.Mac;
  match Conn_state.keys gctx conn_block with
  | None -> 0
  | Some keys ->
      let payload = Bytes.of_string (W.read_lv gctx fin_block) in
      if Bytes.length payload = 0 then 0
      else begin
        let record = Record.seal keys payload in
        Conn_state.store_keys gctx conn_block keys;
        W.write_lv gctx (arg + 1) (Bytes.to_string record);
        1
      end

(* ---------------- data-phase callgates (Figure 5) ---------------- *)

(* SSL_read: reads records from the network (it alone holds the read half
   of the descriptor), drops anything failing the MAC, and delivers
   plaintext into the client handler's data buffer — or returns 0 when
   the plaintext does not fit it. *)
let ssl_read_entry ~fd ~data_block gctx ~trusted:conn_block ~arg:_ =
  match Conn_state.keys gctx conn_block with
  | None -> 0
  | Some keys -> (
      let io = io_of_fd gctx fd in
      let rec next () =
        match Wire.recv_msg io with
        | Wire.App_data, record -> (
            Httpd_env.charge gctx Httpd_env.Mac;
            Httpd_env.charge gctx (Httpd_env.Cipher (Bytes.length record));
            match Record.open_ keys record with
            | Some pt when lv_fits ~size:data_size ~off:0 (Bytes.length pt) ->
                Conn_state.store_keys gctx conn_block keys;
                W.write_lv gctx data_block (Bytes.to_string pt);
                Bytes.length pt
            | Some _ -> 0
            | None ->
                (* Forged or corrupted: drop and keep reading (§5.1.2). *)
                next ())
        | Wire.Alert, _ -> 0
        | _, _ -> next ()
        | exception (Wire.Closed | Wire.Malformed _) -> 0
      in
      next ())

(* SSL_write: seals the handler's data buffer onto the network (write-only
   descriptor). *)
let ssl_write_entry ~fd ~data_block gctx ~trusted:conn_block ~arg:_ =
  match Conn_state.keys gctx conn_block with
  | None -> 0
  | Some keys ->
      let pt = W.read_lv gctx data_block in
      Httpd_env.charge gctx Httpd_env.Mac;
      Httpd_env.charge gctx (Httpd_env.Cipher (String.length pt));
      let record = Record.seal keys (Bytes.of_string pt) in
      Conn_state.store_keys gctx conn_block keys;
      W.fd_write gctx fd (Wire.frame Wire.App_data record);
      1

(* ---------------- the handshake sthread's view ---------------- *)

let handshake_ops ctx ~g_new ~g_resume ~g_premaster ~g_recv_fin ~g_send_fin ~arg_tag
    ~arg_block =
  let perms = W.sc_create () in
  W.sc_mem_add perms arg_tag Prot.RW;
  {
    Handshake.new_session =
      (fun ~client_random ->
        W.write_bytes ctx (arg_block + 1) client_random;
        ignore (W.cgate ctx g_new ~perms ~arg:arg_block);
        (W.read_lv ctx (arg_block + 33), W.read_bytes ctx (arg_block + 1) 32));
    resume_session =
      (fun ~sid ~client_random ->
        W.write_u8 ctx (arg_block + 1) (String.length sid);
        W.write_string ctx (arg_block + 2) sid;
        W.write_bytes ctx (arg_block + 2 + String.length sid) client_random;
        if W.cgate ctx g_resume ~perms ~arg:arg_block = 1 then
          Some (W.read_bytes ctx (arg_block + 2) 32)
        else None);
    set_premaster =
      (fun ~premaster_ct ->
        lv_fits ~size:arg_size ~off:1 (Bytes.length premaster_ct)
        && begin
             W.write_lv ctx (arg_block + 1) (Bytes.to_string premaster_ct);
             W.cgate ctx g_premaster ~perms ~arg:arg_block = 1
           end);
    receive_finished =
      (fun ~transcript_hash ~record ->
        lv_fits ~size:arg_size ~off:33 (Bytes.length record)
        && begin
             W.write_bytes ctx (arg_block + 1) transcript_hash;
             W.write_lv ctx (arg_block + 33) (Bytes.to_string record);
             W.cgate ctx g_recv_fin ~perms ~arg:arg_block = 1
           end);
    send_finished =
      (fun () ->
        if W.cgate ctx g_send_fin ~perms ~arg:arg_block = 1 then
          Bytes.of_string (W.read_lv ctx (arg_block + 1))
        else Bytes.empty);
  }

(* ---------------- master: one connection ---------------- *)

(* Both compartments run as uid 33 under the env's worker SELinux context
   when set, the handshake with an empty root.  Frozen into the image,
   and the base of both compartments' grants. *)
let worker_identity (env : Httpd_env.t) =
  let sc = W.sc_create () in
  W.sc_set_uid sc 33;
  W.sc_set_root sc "/var/empty";
  (match env.Httpd_env.worker_sid with Some sid -> W.sc_sel_context sc sid | None -> ());
  sc

(* The image both compartments and every callgate invocation of the env's
   app are stamped from. *)
let image (env : Httpd_env.t) =
  Service.image ~name:"httpd_mitm.worker" env.Httpd_env.main (worker_identity env)

(* Header and body go out as separate records, as Apache does — SSL_write
   is one of the callgates "invoked more than once per request" (§6). *)
let header_end resp =
  let rec find i =
    if i + 4 > String.length resp then String.length resp
    else if String.sub resp i 4 = "\r\n\r\n" then i + 4
    else find (i + 1)
  in
  find 0

let serve_connection ?spawn ?guard (env : Httpd_env.t) ep =
  let main = env.Httpd_env.main in
  let spawn = match spawn with Some s -> s | None -> W.Stamp (image env) in
  Service.run_worker ?guard ~spawn
    ~degrade:(fun () -> Httpd_env.send_degraded ~server:"httpd_mitm" main ep)
    main ep
  @@ fun conn ->
  (* Per-connection tagged memory (tag-cache reuse applies, §4.1). *)
  let conn_tag = Service.tag conn ~name:"httpd.conn" ~pages:1 in
  let fin_tag = Service.tag conn ~name:"httpd.fin" ~pages:1 in
  let arg_tag = Service.tag conn ~name:"httpd.arg" ~pages:2 in
  let data_tag = Service.tag conn ~name:"httpd.data" ~pages:8 in
  let conn_block = W.smalloc main Conn_state.size conn_tag in
  Conn_state.init main conn_block;
  (* receive/send_finished address both the conn block and the finished
     block; their kernel-held trusted argument points at a pointer pair in
     the conn tag. *)
  let ptr_pair = W.smalloc main 16 conn_tag in
  let fin_block = W.smalloc main 512 fin_tag in
  W.write_u64 main ptr_pair conn_block;
  W.write_u64 main (ptr_pair + 8) fin_block;
  W.write_lv main fin_block "";
  let arg_block = W.smalloc main arg_size arg_tag in
  let data_block = W.smalloc main data_size data_tag in
  let fd = Service.fd conn in
  (* Policies: the handshake holds the descriptor and the argument
     buffer; the client handler only its data buffer. *)
  let hs_sc = worker_identity env in
  let ch_sc = worker_identity env in
  W.sc_set_root ch_sc Httpd_env.docroot;
  let conn_rw () =
    let sc = W.sc_create () in
    W.sc_mem_add sc conn_tag Prot.RW;
    sc
  in
  let mint sc name entry cgsc ~trusted = Service.gate conn sc ~name ~entry ~cgsc ~trusted in
  let g_new =
    mint hs_sc "ssl.new_session" (new_session_entry env) (conn_rw ()) ~trusted:conn_block
  in
  let g_resume =
    let cgsc = conn_rw () in
    W.sc_mem_add cgsc (Sess_store.tag env.Httpd_env.scache) Prot.RW;
    mint hs_sc "ssl.resume" (resume_entry env) cgsc ~trusted:conn_block
  in
  let g_premaster =
    let cgsc = conn_rw () in
    W.sc_mem_add cgsc env.Httpd_env.key_tag Prot.R;
    W.sc_mem_add cgsc (Sess_store.tag env.Httpd_env.scache) Prot.RW;
    mint hs_sc "setup_session_key" (setup_session_key_entry env) cgsc ~trusted:conn_block
  in
  let g_recv_fin =
    let cgsc = conn_rw () in
    W.sc_mem_add cgsc fin_tag Prot.RW;
    mint hs_sc "receive_finished" receive_finished_entry cgsc ~trusted:ptr_pair
  in
  let g_send_fin =
    let cgsc = conn_rw () in
    W.sc_mem_add cgsc fin_tag Prot.R;
    mint hs_sc "send_finished" send_finished_entry cgsc ~trusted:ptr_pair
  in
  let g_ssl_read =
    let cgsc = conn_rw () in
    W.sc_mem_add cgsc data_tag Prot.RW;
    W.sc_fd_add cgsc fd Fd_table.perm_r;
    mint ch_sc "ssl_read" (ssl_read_entry ~fd ~data_block) cgsc ~trusted:conn_block
  in
  let g_ssl_write =
    let cgsc = conn_rw () in
    W.sc_mem_add cgsc data_tag Prot.R;
    W.sc_fd_add cgsc fd Fd_table.perm_w;
    mint ch_sc "ssl_write" (ssl_write_entry ~fd ~data_block) cgsc ~trusted:conn_block
  in
  W.sc_mem_add hs_sc arg_tag Prot.RW;
  W.sc_fd_add hs_sc fd Fd_table.perm_rw;
  W.sc_mem_add ch_sc data_tag Prot.RW;
  (* Phase 1: the SSL handshake compartment. *)
  let handshake ctx _ =
    let io = io_of_fd ctx fd in
    let ops =
      handshake_ops ctx ~g_new ~g_resume ~g_premaster ~g_recv_fin ~g_send_fin ~arg_tag
        ~arg_block
    in
    match Handshake.server_handshake ~ops ~cert:(Httpd_env.cert env) io with
    | Ok _sid ->
        (match guard with Some c -> Guard.established c | None -> ());
        0
    | Error _ -> 1
  in
  (* Phase 2: the client handler, started only after a clean handshake
     exit (Figure 3). *)
  let handler ctx _ =
    let no_perms = W.sc_create () in
    let n = W.cgate ctx g_ssl_read ~perms:no_perms ~arg:0 in
    if n <= 0 then 1
    else begin
      let req = W.read_lv ctx data_block in
      let resp = Httpd_env.handle_request ctx req in
      let split = header_end resp in
      W.write_lv ctx data_block (String.sub resp 0 split);
      ignore (W.cgate ctx g_ssl_write ~perms:no_perms ~arg:0);
      if split < String.length resp then begin
        W.write_lv ctx data_block (String.sub resp split (String.length resp - split));
        ignore (W.cgate ctx g_ssl_write ~perms:no_perms ~arg:0)
      end;
      env.Httpd_env.served <- env.Httpd_env.served + 1;
      0
    end
  in
  [ (hs_sc, handshake); (ch_sc, handler) ]

let service =
  {
    Service.name = "httpd_mitm";
    main = (fun (env : Httpd_env.t) -> env.Httpd_env.main);
    reject = Some (Http.format_response Http.service_unavailable);
    image;
    serve = (fun env c -> serve_connection ~guard:c env (Guard.ep c));
  }
