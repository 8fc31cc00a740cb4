(** Textbook-RSA with random padding — the public-key scheme behind the
    mini-SSL handshake and SSH host keys.

    Security note (simulation scope): key sizes default to 512 bits and
    padding is a simple random-prefix scheme; the experiments depend on the
    {e structural} properties — only the private-key holder can decrypt or
    sign, and ciphertexts are non-malleable enough that a simulated
    attacker cannot forge them — not on real-world cryptographic
    strength. *)

type pub = {
  n : Bignum.t;
  e : Bignum.t;
}

type priv = {
  pub : pub;
  d : Bignum.t;
  p : Bignum.t;
  q : Bignum.t;
}

val keygen : ?bits:int -> Drbg.t -> priv
(** [bits] is the modulus size (default 512). *)

val max_payload : pub -> int
(** Largest plaintext [encrypt] accepts for this key. *)

val encrypt : Drbg.t -> pub -> bytes -> bytes
(** Random-padded encryption; output is [modulus_bytes] long. *)

val decrypt : priv -> bytes -> bytes option
(** [None] on malformed padding or out-of-range ciphertext.  Like [sign],
    computes x{^d} mod n by CRT over the key's [p] and [q]. *)

val sign : priv -> bytes -> bytes
(** Sign the SHA-256 hash of the message. *)

val verify : pub -> bytes -> signature:bytes -> bool

val pub_to_string : pub -> string
val pub_of_string : string -> pub option
(** Wire encoding for certificates / host keys. *)

val priv_to_string : priv -> string
val priv_of_string : string -> priv option
(** Flat encoding of the whole private key, so partitioned servers can keep
    it in tagged memory and deserialise it inside a callgate.  [None]
    unless [p > 2], [q > 2] and [p * q = n]: the private operation runs by
    CRT over [p] and [q]. *)

val demo_key : unit -> priv
(** A process-wide 512-bit key generated once from a fixed seed (keygen is
    the slowest operation in the suite; tests and examples share this). *)

val demo_key2 : unit -> priv
(** A second, distinct shared key (e.g. the attacker's). *)
