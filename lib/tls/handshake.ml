module Drbg = Wedge_crypto.Drbg
module Rsa = Wedge_crypto.Rsa
module Sha256 = Wedge_crypto.Sha256
module Hmac = Wedge_crypto.Hmac

let random_len = 32
let premaster_len = 48
let sid_len = 16

(* The transcript keeps the raw framed messages; hashing on demand lets us
   take intermediate hashes (the protocol needs the hash before and after
   the client's Finished). *)
type transcript = Buffer.t

let transcript_create () = Buffer.create 512
let transcript_add t mtype payload = Buffer.add_bytes t (Wire.frame mtype payload)
let transcript_hash t = Sha256.digest_string (Buffer.contents t)

let derive_master ~premaster =
  let ctx = Sha256.init () in
  Sha256.update_string ctx "master";
  Sha256.update ctx premaster;
  Sha256.final ctx

let finished_payload ~master ~side ~transcript_hash =
  let label = match side with `Client -> "client finished" | `Server -> "server finished" in
  Hmac.mac ~key:master ~prefix:(Bytes.unsafe_of_string label) transcript_hash

(* The server's Finished binds the pre-Finished transcript hash together
   with the client's Finished cleartext; receive_finished hashes them (the
   hash's non-invertibility is what denies an exploited handshake driver an
   encryption oracle, §5.1.2). *)
let server_finished_payload ~master ~transcript_hash ~client_finished =
  let combined = Sha256.digest (Bytes.cat transcript_hash client_finished) in
  finished_payload ~master ~side:`Server ~transcript_hash:combined

(* ------------------------------------------------------------------ *)
(* Client                                                              *)

type client_session = {
  cs_sid : string;
  cs_master : bytes;
}

type client_result = {
  cr_keys : Record.keys;
  cr_session : client_session;
  cr_resumed : bool;
}

let parse_server_hello payload =
  if Bytes.length payload < random_len + 2 then Error "short ServerHello"
  else begin
    let sr = Bytes.sub payload 0 random_len in
    let resumed = Bytes.get payload random_len = '\001' in
    let n = Char.code (Bytes.get payload (random_len + 1)) in
    if Bytes.length payload < random_len + 2 + n then Error "short ServerHello sid"
    else Ok (sr, resumed, Bytes.sub_string payload (random_len + 2) n)
  end

let build_hello ~client_random ~sid =
  let b = Buffer.create 64 in
  Buffer.add_bytes b client_random;
  Buffer.add_char b (Char.chr (String.length sid));
  Buffer.add_string b sid;
  Buffer.to_bytes b

let build_server_hello ~server_random ~resumed ~sid =
  let b = Buffer.create 64 in
  Buffer.add_bytes b server_random;
  Buffer.add_char b (if resumed then '\001' else '\000');
  Buffer.add_char b (Char.chr (String.length sid));
  Buffer.add_string b sid;
  Buffer.to_bytes b

let client_connect ?resume ~rng ~pinned io =
  let ( let* ) = Result.bind in
  try
    let tr = transcript_create () in
    let cr = Drbg.bytes rng random_len in
    let req_sid = match resume with Some s -> s.cs_sid | None -> "" in
    let hello = build_hello ~client_random:cr ~sid:req_sid in
    Wire.send_msg io Wire.Client_hello hello;
    transcript_add tr Wire.Client_hello hello;
    let mt, payload = Wire.recv_msg io in
    if mt <> Wire.Server_hello then Error "expected ServerHello"
    else
      let* sr, resumed, sid = parse_server_hello payload in
      transcript_add tr Wire.Server_hello payload;
      let* master =
        if resumed then
          match resume with
          | Some s when s.cs_sid = sid -> Ok s.cs_master
          | _ -> Error "server resumed a session we did not offer"
        else begin
          let mt, cert = Wire.recv_msg io in
          if mt <> Wire.Certificate then Error "expected Certificate"
          else begin
            transcript_add tr Wire.Certificate cert;
            match Rsa.pub_of_string (Bytes.to_string cert) with
            | None -> Error "unparsable certificate"
            | Some pub ->
                if Rsa.pub_to_string pub <> Rsa.pub_to_string pinned then
                  Error "certificate does not match pinned server key (MITM?)"
                else begin
                  let premaster = Drbg.bytes rng premaster_len in
                  let ct = Rsa.encrypt rng pub premaster in
                  Wire.send_msg io Wire.Client_key_exchange ct;
                  transcript_add tr Wire.Client_key_exchange ct;
                  Ok (derive_master ~premaster)
                end
          end
        end
      in
      let keys = Record.derive ~master ~client_random:cr ~server_random:sr ~side:`Client in
      let th = transcript_hash tr in
      let my_fin = finished_payload ~master ~side:`Client ~transcript_hash:th in
      let record = Record.seal keys my_fin in
      Wire.send_msg io Wire.Finished record;
      let mt, srecord = Wire.recv_msg io in
      if mt <> Wire.Finished then Error "expected server Finished"
      else
        match Record.open_ keys srecord with
        | None -> Error "server Finished failed MAC"
        | Some payload ->
            let expect = server_finished_payload ~master ~transcript_hash:th ~client_finished:my_fin in
            if not (Bytes.equal payload expect) then Error "server Finished mismatch"
            else
              Ok
                {
                  cr_keys = keys;
                  cr_session = { cs_sid = sid; cs_master = master };
                  cr_resumed = resumed;
                }
  with
  | Wire.Closed -> Error "connection closed during handshake"
  | Wire.Malformed m | Failure m -> Error m

(* ------------------------------------------------------------------ *)
(* Server                                                              *)

type server_ops = {
  new_session : client_random:bytes -> string * bytes;
  resume_session : sid:string -> client_random:bytes -> bytes option;
  set_premaster : premaster_ct:bytes -> bool;
  receive_finished : transcript_hash:bytes -> record:bytes -> bool;
  send_finished : unit -> bytes;
}

let parse_hello payload =
  if Bytes.length payload < random_len + 1 then Error "short ClientHello"
  else begin
    let cr = Bytes.sub payload 0 random_len in
    let n = Char.code (Bytes.get payload random_len) in
    if Bytes.length payload < random_len + 1 + n then Error "short ClientHello sid"
    else Ok (cr, Bytes.sub_string payload (random_len + 1) n)
  end

let server_handshake ~ops ~cert io =
  let ( let* ) = Result.bind in
  try
    let tr = transcript_create () in
    let mt, payload = Wire.recv_msg io in
    if mt <> Wire.Client_hello then Error "expected ClientHello"
    else
      let* cr, req_sid = parse_hello payload in
      transcript_add tr Wire.Client_hello payload;
      let resumed_sr = if req_sid = "" then None else ops.resume_session ~sid:req_sid ~client_random:cr in
      let sid, sr, resumed =
        match resumed_sr with
        | Some sr -> (req_sid, sr, true)
        | None ->
            let sid, sr = ops.new_session ~client_random:cr in
            (sid, sr, false)
      in
      let shello = build_server_hello ~server_random:sr ~resumed ~sid in
      Wire.send_msg io Wire.Server_hello shello;
      transcript_add tr Wire.Server_hello shello;
      let* () =
        if resumed then Ok ()
        else begin
          let cert_b = Bytes.of_string cert in
          Wire.send_msg io Wire.Certificate cert_b;
          transcript_add tr Wire.Certificate cert_b;
          let mt, ct = Wire.recv_msg io in
          if mt <> Wire.Client_key_exchange then Error "expected ClientKeyExchange"
          else begin
            transcript_add tr Wire.Client_key_exchange ct;
            if ops.set_premaster ~premaster_ct:ct then Ok () else Error "key exchange failed"
          end
        end
      in
      let th = transcript_hash tr in
      let mt, record = Wire.recv_msg io in
      if mt <> Wire.Finished then Error "expected client Finished"
      else if not (ops.receive_finished ~transcript_hash:th ~record) then
        Error "client Finished verification failed"
      else begin
        Wire.send_msg io Wire.Finished (ops.send_finished ());
        Ok sid
      end
  with
  | Wire.Closed -> Error "connection closed during handshake"
  | Wire.Malformed m | Failure m -> Error m

(* ------------------------------------------------------------------ *)
(* In-process ops: the monolithic layout                               *)

type plain_state = {
  mutable ps_master : bytes;
  mutable ps_client_random : bytes;
  mutable ps_server_random : bytes;
  mutable ps_sid : string;
  mutable ps_finished : bytes;
  mutable ps_keys : Record.keys option;
}

let plain_state_create () =
  {
    ps_master = Bytes.create 0;
    ps_client_random = Bytes.create 0;
    ps_server_random = Bytes.create 0;
    ps_sid = "";
    ps_finished = Bytes.create 0;
    ps_keys = None;
  }

let plain_ops ~rng ~priv ~cache ~state =
  {
    new_session =
      (fun ~client_random ->
        let sid = Bytes.to_string (Drbg.bytes rng sid_len) in
        let sr = Drbg.bytes rng random_len in
        state.ps_client_random <- client_random;
        state.ps_server_random <- sr;
        state.ps_sid <- sid;
        (sid, sr));
    resume_session =
      (fun ~sid ~client_random ->
        match Session.lookup cache ~sid with
        | None -> None
        | Some master ->
            let sr = Drbg.bytes rng random_len in
            state.ps_master <- master;
            state.ps_client_random <- client_random;
            state.ps_server_random <- sr;
            state.ps_sid <- sid;
            Some sr);
    set_premaster =
      (fun ~premaster_ct ->
        match Rsa.decrypt priv premaster_ct with
        | Some pm when Bytes.length pm = premaster_len ->
            state.ps_master <- derive_master ~premaster:pm;
            true
        | Some _ | None -> false);
    receive_finished =
      (fun ~transcript_hash ~record ->
        let keys =
          match state.ps_keys with
          | Some k -> k
          | None ->
              let k =
                Record.derive ~master:state.ps_master
                  ~client_random:state.ps_client_random
                  ~server_random:state.ps_server_random ~side:`Server
              in
              state.ps_keys <- Some k;
              k
        in
        match Record.open_ keys record with
        | None -> false
        | Some payload ->
            let expect =
              finished_payload ~master:state.ps_master ~side:`Client ~transcript_hash
            in
            if Bytes.equal payload expect then begin
              state.ps_finished <-
                server_finished_payload ~master:state.ps_master ~transcript_hash
                  ~client_finished:payload;
              Session.store cache ~sid:state.ps_sid ~master:state.ps_master;
              true
            end
            else false);
    send_finished =
      (fun () ->
        match state.ps_keys with
        | None -> invalid_arg "send_finished before receive_finished"
        | Some keys -> Record.seal keys state.ps_finished);
  }

let keys_of_plain_state state =
  match state.ps_keys with
  | Some k -> k
  | None -> invalid_arg "keys_of_plain_state: handshake incomplete"

(* ------------------------------------------------------------------ *)
(* Application data                                                    *)

let send_data io keys plaintext = Wire.send_msg io Wire.App_data (Record.seal keys plaintext)

let recv_data io keys =
  match Wire.recv_msg io with
  | Wire.App_data, record -> (
      match Record.open_ keys record with Some pt -> Ok pt | None -> Error `Mac_fail)
  | Wire.Alert, _ -> Error `Alert
  | _ -> Error `Mac_fail
  | exception Wire.Malformed _ -> Error `Mac_fail
  | exception Wire.Closed -> Error `Eof
