(** The simplified SSH protocol ("wssh") spoken by the OpenSSH stand-ins.

    {v
    C -> S  Version
    S -> C  Version
    C -> S  Kexinit(client_nonce)
    S -> C  Kexreply(rsa host key, dsa host key, server_nonce,
                     DSA signature over H(nonces ++ host keys))
    C -> S  Kexsecret(RSA_enc(host rsa key, secret))
    [transport now sealed with record keys derived from secret + nonces]
    C -> S  one Auth_* exchange (password / pubkey / skey)
    S -> C  Auth_result
    C -> S  Exec(command); Data...; Eof
    v}

    The DSA signature is what the dsa_sign callgate produces in §5.2 —
    signing only the hash the gate computes itself, never raw caller
    bytes. *)

type msg =
  | Version of string
  | Kexinit of bytes
  | Kexreply of {
      host_rsa : string;
      host_dsa : string;
      server_nonce : bytes;
      signature : string;  (** hex pair r:s *)
    }
  | Kexsecret of bytes
  | Auth_password of { user : string; password : string }
  | Auth_pubkey of { user : string; pub : string; proof : string }
  | Skey_start of { user : string }
  | Skey_challenge of { seq : int; seed : string }
  | Skey_response of { response : string }
  | Auth_result of bool
  | Exec of string
  | Data of bytes
  | Eof
  | Disconnect

val kex_binding : client_nonce:bytes -> server_nonce:bytes -> host_rsa:string -> host_dsa:string -> bytes
(** The exact bytes the DSA host signature covers. *)

val auth_proof_binding : session_fp:string -> user:string -> bytes
(** What a public-key authentication proof signs: bound to this session's
    key fingerprint so proofs cannot be replayed across sessions. *)

val derive_keys : secret:bytes -> client_nonce:bytes -> server_nonce:bytes -> side:[ `Client | `Server ] -> Wedge_tls.Record.keys

val session_fingerprint : secret:bytes -> client_nonce:bytes -> server_nonce:bytes -> string

(** {2 Wire encoding} *)

val send_plain : Wedge_tls.Wire.io -> msg -> unit
val recv_plain : Wedge_tls.Wire.io -> msg
(** @raise Wedge_tls.Wire.Closed on EOF, {!Wedge_tls.Wire.Malformed} on an
    unknown frame type, [Failure] on any other garbage. *)

val send_sealed : Wedge_tls.Wire.io -> Wedge_tls.Record.keys -> msg -> unit
val recv_sealed : Wedge_tls.Wire.io -> Wedge_tls.Record.keys -> (msg, [ `Mac_fail | `Eof ]) result

val marshal : msg -> bytes
