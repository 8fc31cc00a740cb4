(** The mini-SSL handshake.

    The protocol (RSA key exchange, as §5.1 analyses):

    {v
    C -> S  ClientHello(client_random, old_sid?)
    S -> C  ServerHello(server_random, sid, resumed?)
    [new session only]
    S -> C  Certificate(server RSA public key)
    C -> S  ClientKeyExchange(RSA_enc(pub, premaster))
    [both]
    C -> S  Finished{ HMAC(master, "client finished" ++ transcript_hash) }   (sealed)
    S -> C  Finished{ HMAC(master, "server finished" ++ transcript_hash') }  (sealed)
    v}

    with [master = SHA256("master" ++ premaster)] and per-connection record
    keys derived from [master], [client_random] and [server_random] — so an
    attacker must influence the server random to force session-key reuse,
    which is exactly what the setup_session_key callgate prevents (§5.1.1).

    The {e server} side is expressed against the {!server_ops} callback
    vocabulary: a monolithic server implements the callbacks in-process,
    the Wedge-partitioned server implements each as a callgate, and the
    handshake driver (which reads attacker-controlled cleartext!) never
    touches the master secret or the record keys. *)

type transcript
(** Running hash of all handshake messages framed on the wire. *)

val transcript_create : unit -> transcript
val transcript_add : transcript -> Wire.mtype -> bytes -> unit
val transcript_hash : transcript -> bytes
(** Hash of everything added so far (the transcript keeps accepting
    messages afterwards). *)

val random_len : int
val premaster_len : int
val sid_len : int

val derive_master : premaster:bytes -> bytes
val finished_payload :
  master:bytes -> side:[ `Client | `Server ] -> transcript_hash:bytes -> bytes

val server_finished_payload :
  master:bytes -> transcript_hash:bytes -> client_finished:bytes -> bytes
(** The server's Finished binds the pre-Finished transcript hash and the
    client's Finished cleartext through a hash, so receive_finished can
    prepare it without exposing an encryption oracle (§5.1.2). *)

(** {1 Client} *)

type client_session = {
  cs_sid : string;
  cs_master : bytes;
}

type client_result = {
  cr_keys : Record.keys;
  cr_session : client_session;  (** cache this for resumption *)
  cr_resumed : bool;
}

val client_connect :
  ?resume:client_session ->
  rng:Wedge_crypto.Drbg.t ->
  pinned:Wedge_crypto.Rsa.pub ->
  Wire.io ->
  (client_result, string) result
(** Run the client side.  [pinned] is the expected server key: a
    man-in-the-middle substituting his own certificate is detected here,
    forcing him into the pass-through role §5.1.2 analyses. *)

(** {1 Server} *)

type server_ops = {
  new_session : client_random:bytes -> string * bytes;
      (** Allocate a session: returns (sid, server_random).  The {e server}
          generates its random contribution — never the caller (§5.1.1). *)
  resume_session : sid:string -> client_random:bytes -> bytes option;
      (** Try the session cache; [Some server_random] resumes. *)
  set_premaster : premaster_ct:bytes -> bool;
      (** Decrypt the key exchange with the private key and derive the
          master into protected state; [false] aborts the handshake. *)
  receive_finished : transcript_hash:bytes -> record:bytes -> bool;
      (** Verify the client's Finished; on success prepare the server
          Finished payload in protected state.  Returns only a boolean —
          no decrypted bytes ever flow back (§5.1.2). *)
  send_finished : unit -> bytes;
      (** The sealed server Finished record, built from protected state. *)
}

val server_handshake :
  ops:server_ops -> cert:string -> Wire.io -> (string, string) result
(** Drive the server side of one handshake using [ops]; returns the session
    id on success.  This function is safe to run in an unprivileged
    compartment: it sees only cleartext protocol messages and booleans. *)

(** {1 In-process server ops (for the monolithic server and tests)} *)

type plain_state = {
  mutable ps_master : bytes;
  mutable ps_client_random : bytes;
  mutable ps_server_random : bytes;
  mutable ps_sid : string;
  mutable ps_finished : bytes;  (** prepared server-finished payload *)
  mutable ps_keys : Record.keys option;
}

val plain_state_create : unit -> plain_state

val plain_ops :
  rng:Wedge_crypto.Drbg.t ->
  priv:Wedge_crypto.Rsa.priv ->
  cache:Session.t ->
  state:plain_state ->
  server_ops
(** Callbacks with direct access to the private key and session state — the
    monolithic layout where everything is privileged. *)

val keys_of_plain_state : plain_state -> Record.keys
(** Server record keys after a successful handshake. *)

(** {1 Application data} *)

val send_data : Wire.io -> Record.keys -> bytes -> unit
val recv_data : Wire.io -> Record.keys -> (bytes, [ `Mac_fail | `Eof | `Alert ]) result
(** The next application-data record, opened.  A record failing its MAC,
    a frame of another type and a frame of no known type
    ({!Wire.Malformed}) are all [`Mac_fail]: a tampered stream. *)
