module W = Wedge_core.Wedge
module Kernel = Wedge_kernel.Kernel
module Cost_model = Wedge_sim.Cost_model
module Prot = Wedge_kernel.Prot
module Fd_table = Wedge_kernel.Fd_table
module Guard = Wedge_net.Guard
module Service = Wedge_net.Service
module Drbg = Wedge_crypto.Drbg
module Rsa = Wedge_crypto.Rsa
module Dsa = Wedge_crypto.Dsa
module Sha256 = Wedge_crypto.Sha256
module Wire = Wedge_tls.Wire
module P = Ssh_proto
module Synth = Wedge_crowbar.Synth

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

(* Escalate the calling worker after successful authentication (§5.2,
   the Privtrans idiom): the only path by which the worker's uid ever
   changes. *)
let promote_caller gctx (env : Sshd_env.t) user =
  match (W.caller_pid gctx, Sshd_env.find_user env user) with
  | Some pid, Some u ->
      W.set_identity gctx ~target_pid:pid ~uid:u.Sshd_env.uid ~root:("/home/" ^ user) ()
  | _ -> ()

(* ---------------- callgates ---------------- *)

(* dsa_sign: the only code that can touch the DSA host key.  It signs the
   hash it computes itself over the caller's data stream — the caller
   cannot obtain a signature over bytes of its choosing (§5.2). *)
let dsa_sign_entry (env : Sshd_env.t) gctx ~trusted:_ ~arg =
  let cn = Bytes.of_string (W.read_lv gctx (arg + 0)) in
  let sn = Bytes.of_string (W.read_lv gctx (arg + 256)) in
  charge_dsa gctx;
  let binding =
    P.kex_binding ~client_nonce:cn ~server_nonce:sn
      ~host_rsa:(W.read_lv gctx env.Sshd_env.pub_rsa_addr)
      ~host_dsa:(W.read_lv gctx env.Sshd_env.pub_dsa_addr)
  in
  let key = Sshd_env.read_host_dsa gctx env in
  let signature = Dsa.sign env.Sshd_env.rng key binding in
  W.write_lv gctx (arg + 512) (Dsa.signature_to_string signature);
  1

(* rsa_kex: host-key decryption of the key-exchange secret; only this gate
   reads the RSA host key. *)
let rsa_kex_entry (env : Sshd_env.t) gctx ~trusted:_ ~arg =
  let ct = Bytes.of_string (W.read_lv gctx (arg + 0)) in
  charge_rsa gctx;
  let key = Sshd_env.read_host_rsa gctx env in
  match Rsa.decrypt key ct with
  | Some secret when Bytes.length secret = 32 ->
      W.write_lv gctx (arg + 512) (Bytes.to_string secret);
      1
  | Some _ | None -> 0

(* password gate: two-step getpwnam + verify kept for ease of coding, but
   with the dummy-passwd fix — an unknown user takes the same path as a
   wrong password, so the gate is not a username oracle (§5.2). *)
let dummy_shadow_line user = user ^ ":0:dummysalt:" ^ String.make 64 '0'

let auth_password_entry (env : Sshd_env.t) gctx ~trusted:_ ~arg =
  let user = W.read_lv gctx (arg + 0) in
  let password = W.read_lv gctx (arg + 256) in
  match W.vfs_read gctx Sshd_env.shadow_path with
  | Error _ -> 0
  | Ok shadow ->
      let line =
        match Sshd_env.lookup_shadow shadow ~user with
        | Some line -> line
        | None -> dummy_shadow_line user
      in
      (* PAM scratch lives and dies in this callgate's private heap. *)
      if Pam.authenticate gctx ~shadow_line:line ~user ~password then begin
        promote_caller gctx env user;
        1
      end
      else 0

(* dsa_auth gate: check the offered key against the user's authorized_keys
   and verify the session-bound proof. *)
let auth_pubkey_entry (env : Sshd_env.t) gctx ~trusted:_ ~arg =
  let user = W.read_lv gctx (arg + 0) in
  let pub = W.read_lv gctx (arg + 256) in
  let proof = W.read_lv gctx (arg + 1024) in
  let session_fp = W.read_lv gctx (arg + 1280) in
  match W.vfs_read gctx ("/home/" ^ user ^ "/.ssh/authorized_keys") with
  | Error _ -> 0
  | Ok keys ->
      if
        List.mem pub (String.split_on_char '\n' keys)
        &&
        match (Dsa.pub_of_string pub, Dsa.signature_of_string proof) with
        | Some pk, Some signature ->
            charge_dsa gctx;
            Dsa.verify pk (P.auth_proof_binding ~session_fp ~user) ~signature
        | _ -> false
      then begin
        promote_caller gctx env user;
        1
      end
      else 0

(* skey gate: op 1 issues a challenge (a deterministic dummy for unknown
   users, fixing the Rembrandt 2002 leak); op 2 verifies and advances the
   chain. *)
let dummy_challenge user =
  let h = Sha256.hex (Sha256.digest_string ("skey-dummy:" ^ user)) in
  let seq = 40 + (Char.code h.[0] mod 50) in
  (seq, "dk" ^ String.sub h 0 6)

let skey_entry (env : Sshd_env.t) gctx ~trusted:_ ~arg =
  let op = W.read_u8 gctx arg in
  let user = W.read_lv gctx (arg + 8) in
  let db () = match W.vfs_read gctx Sshd_env.skey_path with Ok d -> d | Error _ -> "" in
  if op = 1 then begin
    let seq, seed =
      match
        String.split_on_char '\n' (db ())
        |> List.find_map (fun line ->
               match Skey.entry_of_line line with
               | Some e when e.Skey.user = user && not (Skey.exhausted e) ->
                   Some (Skey.challenge e)
               | _ -> None)
      with
      | Some c -> c
      | None -> dummy_challenge user
    in
    W.write_u32 gctx (arg + 512) seq;
    W.write_lv gctx (arg + 520) seed;
    1
  end
  else begin
    let response = W.read_lv gctx (arg + 256) in
    let lines = String.split_on_char '\n' (db ()) in
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
    if !updated then begin
      ignore (W.vfs_write gctx Sshd_env.skey_path (String.concat "\n" lines'));
      promote_caller gctx env user;
      1
    end
    else 0
  end

(* ---------------- the worker's view of the gates ---------------- *)

(* Each gate reads its fields at fixed offsets of the 6000-byte argument
   block.  A length-prefixed field of [len] bytes at [off] fits when it
   ends by [limit], where the gate's next field (or its reply) starts; a
   field the client sized too large is refused before anything is
   written, never run into the next field or past the block. *)
let fits ~off ~limit len = off + 4 + len <= limit

(* [established] runs after every successful authentication. *)
let worker_ops ctx ~arg_tag ~arg_block ~g_sign ~g_kex ~g_pass ~g_pub ~g_skey ~established =
  let perms = W.sc_create () in
  W.sc_mem_add perms arg_tag Prot.RW;
  let call g = W.cgate ctx g ~perms ~arg:arg_block in
  let authenticate g =
    let ok = call g = 1 in
    if ok then established ();
    ok
  in
  {
    Sshd_session.sign_kex =
      (fun ~client_nonce ~server_nonce ->
        if not (fits ~off:0 ~limit:256 (Bytes.length client_nonce)) then ""
        else begin
          W.write_lv ctx (arg_block + 0) (Bytes.to_string client_nonce);
          W.write_lv ctx (arg_block + 256) (Bytes.to_string server_nonce);
          if call g_sign = 1 then W.read_lv ctx (arg_block + 512) else ""
        end);
    kex_decrypt =
      (fun ct ->
        if not (fits ~off:0 ~limit:512 (Bytes.length ct)) then None
        else begin
          W.write_lv ctx (arg_block + 0) (Bytes.to_string ct);
          if call g_kex = 1 then Some (Bytes.of_string (W.read_lv ctx (arg_block + 512)))
          else None
        end);
    auth_password =
      (fun ~user ~password ->
        if String.length user > 200 || String.length password > 200 then false
        else begin
          W.write_lv ctx (arg_block + 0) user;
          W.write_lv ctx (arg_block + 256) password;
          authenticate g_pass
        end);
    auth_pubkey =
      (fun ~user ~pub ~proof ~session_fp ->
        fits ~off:0 ~limit:256 (String.length user)
        && fits ~off:256 ~limit:1024 (String.length pub)
        && fits ~off:1024 ~limit:1280 (String.length proof)
        && begin
             W.write_lv ctx (arg_block + 0) user;
             W.write_lv ctx (arg_block + 256) pub;
             W.write_lv ctx (arg_block + 1024) proof;
             W.write_lv ctx (arg_block + 1280) session_fp;
             authenticate g_pub
           end);
    skey_challenge =
      (fun ~user ->
        if not (fits ~off:8 ~limit:256 (String.length user)) then None
        else begin
          W.write_u8 ctx arg_block 1;
          W.write_lv ctx (arg_block + 8) user;
          if call g_skey = 1 then
            Some (W.read_u32 ctx (arg_block + 512), W.read_lv ctx (arg_block + 520))
          else None
        end);
    skey_verify =
      (fun ~user ~response ->
        fits ~off:8 ~limit:256 (String.length user)
        && fits ~off:256 ~limit:512 (String.length response)
        && begin
             W.write_u8 ctx arg_block 2;
             W.write_lv ctx (arg_block + 8) user;
             W.write_lv ctx (arg_block + 256) response;
             authenticate g_skey
           end);
  }

(* ---------------- master: one connection ---------------- *)

(* The worker's identity: uid 99 with an empty filesystem root.  Frozen
   into the worker image, and the base of its hand-written grants. *)
let worker_identity () =
  let sc = W.sc_create () in
  W.sc_set_uid sc 99;
  W.sc_set_root sc "/var/empty";
  sc

(* The image every worker and callgate invocation of the env's app is
   stamped from. *)
let image (env : Sshd_env.t) =
  Service.image ~name:"sshd.worker" env.Sshd_env.main (worker_identity ())

let serve_connection ?spawn ?guard ?synth (env : Sshd_env.t) ep =
  let main = env.Sshd_env.main in
  let spawn = match spawn with Some s -> s | None -> W.Stamp (image env) in
  (* An SSH session whose worker died mid-protocol cannot be resumed in
     plaintext: the degraded answer is a disconnect, master intact. *)
  Service.run_worker ?guard ~spawn
    ~degrade:(fun () -> W.stat main "sshd.degraded")
    main ep
  @@ fun conn ->
  let arg_tag = Service.tag conn ~name:"sshd.arg" ~pages:2 in
  let arg_block = W.smalloc main 6000 arg_tag in
  let fd = Service.fd conn in
  let conn_tags = [ arg_tag ] in
  let conn_fds = [ ("conn", fd) ] in
  let worker_sc =
    match Synth.sthread_sc synth ~name:"sshd.worker" ~tags:conn_tags ~fds:conn_fds main with
    | Some sc -> sc
    | None ->
        let sc = worker_identity () in
        W.sc_mem_add sc arg_tag Prot.RW;
        W.sc_mem_add sc env.Sshd_env.public_tag Prot.R;
        W.sc_fd_add sc fd Fd_table.perm_rw;
        sc
  in
  let hostkey_sc name =
    match Synth.gate_sc synth ~name ~tags:conn_tags main with
    | Some sc -> sc
    | None ->
        let sc = W.sc_create () in
        W.sc_mem_add sc env.Sshd_env.hostkey_tag Prot.R;
        W.sc_mem_add sc env.Sshd_env.public_tag Prot.R;
        sc
  in
  let auth_sc name =
    match Synth.gate_sc synth ~name ~tags:conn_tags main with
    | Some sc -> sc
    | None -> W.sc_create ()
  in
  let mint name entry cgsc =
    Service.gate conn worker_sc ~name ~entry:(Synth.wrap_gate synth ~name entry) ~cgsc ~trusted:0
  in
  let g_sign = mint "dsa_sign" (dsa_sign_entry env) (hostkey_sc "dsa_sign") in
  let g_kex = mint "rsa_kex" (rsa_kex_entry env) (hostkey_sc "rsa_kex") in
  let g_pass = mint "auth_password" (auth_password_entry env) (auth_sc "auth_password") in
  let g_pub = mint "dsa_auth" (auth_pubkey_entry env) (auth_sc "dsa_auth") in
  let g_skey = mint "skey" (skey_entry env) (auth_sc "skey") in
  let wrng_seed = Drbg.next64 env.Sshd_env.rng in
  let worker_body ctx _ =
    let io = io_of_fd ctx fd in
    (* A successful authentication establishes the session: the guard's
       header deadline stops applying and the connection's heart beats. *)
    let established () = Option.iter Guard.established guard in
    let ops =
      worker_ops ctx ~arg_tag ~arg_block ~g_sign ~g_kex ~g_pass ~g_pub ~g_skey ~established
    in
    Sshd_session.run ~ctx ~io ~wrng:(Drbg.create ~seed:wrng_seed)
      ~host_rsa_pub:(W.read_lv ctx env.Sshd_env.pub_rsa_addr)
      ~host_dsa_pub:(W.read_lv ctx env.Sshd_env.pub_dsa_addr)
      ~ops ();
    0
  in
  [ (worker_sc, Synth.wrap_sthread synth ~name:"sshd.worker" ~fds:conn_fds worker_body) ]

(* SSH has no pre-handshake plaintext channel to apologise on: a
   rejected connection is simply disconnected, as the privsep baseline
   does. *)
let service =
  {
    Service.name = "sshd";
    main = (fun (env : Sshd_env.t) -> env.Sshd_env.main);
    reject = None;
    image;
    serve = (fun env c -> serve_connection ~guard:c env (Guard.ep c));
  }
