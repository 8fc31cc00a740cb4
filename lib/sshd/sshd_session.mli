(** The network-facing SSH session loop, shared by all three server
    layouts and parameterised over the privileged operations — implemented
    in-process by the monolithic server, as monitor RPCs by the
    privilege-separated baseline, and as callgates by the Wedge
    partitioning (Figure 6).  The loop itself only ever sees public data
    and authentication verdicts. *)

type priv_ops = {
  sign_kex : client_nonce:bytes -> server_nonce:bytes -> string;
      (** DSA host signature over the kex binding (the dsa_sign gate:
          callers get signatures over hashes the signer computes, never
          over raw caller bytes). *)
  kex_decrypt : bytes -> bytes option;
      (** RSA host-key decryption of the key-exchange secret. *)
  auth_password : user:string -> password:string -> bool;
      (** Full two-step authentication behind one verdict; on success the
          implementation escalates the session's identity itself. *)
  auth_pubkey : user:string -> pub:string -> proof:string -> session_fp:string -> bool;
  skey_challenge : user:string -> (int * string) option;
      (** [None] models the vulnerable pre-fix behaviour that reveals
          whether the user exists; the fixed behaviour always returns a
          (dummy) challenge. *)
  skey_verify : user:string -> response:string -> bool;
}

val run :
  ctx:Wedge_core.Wedge.ctx ->
  io:Wedge_tls.Wire.io ->
  wrng:Wedge_crypto.Drbg.t ->
  host_rsa_pub:string ->
  host_dsa_pub:string ->
  ops:priv_ops ->
  unit ->
  unit
(** Serve one session: version exchange, key exchange, one authentication
    dialogue, then Exec/Data commands until EOF.  An Exec command over
    4096 bytes answers ["command too long"] and disconnects; uploads are
    capped at 16 MiB, room for the paper's 10 MB scp: an upload that
    grows the staging buffer past it answers ["upload too large"] and
    disconnects instead of buffering attacker-sized data. *)
