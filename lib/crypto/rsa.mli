(** Textbook-RSA with random padding — the public-key scheme behind the
    mini-SSL handshake and SSH host keys.

    Security note (simulation scope): key sizes default to 512 bits and
    padding is a simple random-prefix scheme; the experiments depend on the
    {e structural} properties — only the private-key holder can decrypt,
    and ciphertexts are non-malleable enough that a simulated
    attacker cannot forge them — not on real-world cryptographic
    strength. *)

type pub = {
  n : Bignum.t;
  e : Bignum.t;
}

(** A private key as PKCS #1's CRT fields; the whole private exponent d
    is never needed.  The type is private: a key comes from keygen
    ({!demo_key}), which computes the CRT fields from the primes, or from
    {!priv_of_string}, which checks them. *)
type priv = private {
  pub : pub;
  p : Bignum.t;
  q : Bignum.t;
  dp : Bignum.t;  (** [e{^-1} mod (p - 1)], which is [d mod (p - 1)] *)
  dq : Bignum.t;  (** [e{^-1} mod (q - 1)] *)
  qinv : Bignum.t;  (** [q{^-1} mod p] *)
}

val encrypt : Drbg.t -> pub -> bytes -> bytes
(** Random-padded encryption; output is [modulus_bytes] long.  The
    payload may be up to the modulus's bytes less 11 long.
    @raise Invalid_argument on a longer payload. *)

val decrypt : priv -> bytes -> bytes option
(** [None] on malformed padding or out-of-range ciphertext.  Computes
    x{^d} mod n by CRT: x{^dp} mod p and x{^dq} mod q, joined by
    Garner's step with [qinv]. *)

val pub_to_string : pub -> string
val pub_of_string : string -> pub option
(** Wire encoding for certificates / host keys. *)

val priv_to_string : priv -> string
val priv_of_string : string -> priv option
(** Flat encoding of the whole private key, CRT fields included, so
    partitioned servers can keep it in tagged memory and deserialise it
    inside a callgate.  [None] unless the block has exactly its seven
    fields, [p > 2], [q > 2], [p * q = n], [dp < p - 1],
    [dp * e mod (p - 1) = 1], [dq < q - 1], [dq * e mod (q - 1) = 1],
    [qinv < p] and [qinv * q mod p = 1]: the private operation runs by
    CRT over those fields. *)

val demo_key : unit -> priv
(** A process-wide 512-bit key generated once from a fixed seed (keygen is
    the slowest operation in the suite; tests and examples share this). *)

module For_testing : sig
  val keygen : bits:int -> Drbg.t -> priv
  (** The key generation {!demo_key} runs, for other sizes and seeds;
      [bits] is the modulus size. *)
end
