(** DSA-style signatures over a Schnorr group, for OpenSSH's DSA host keys
    and DSA user authentication (§5.2, Figure 6).  Parameters are sized for
    the simulation (256-bit p, 96-bit q by default). *)

type params = {
  p : Bignum.t;  (** prime modulus *)
  q : Bignum.t;  (** prime order of the subgroup, q | p-1 *)
  g : Bignum.t;  (** generator of the order-q subgroup *)
}

type pub = {
  params : params;
  y : Bignum.t;  (** g^x mod p *)
}

type priv = {
  pub : pub;
  x : Bignum.t;
}

val keygen : Drbg.t -> params -> priv
val sign : Drbg.t -> priv -> bytes -> Bignum.t * Bignum.t
val verify : pub -> bytes -> signature:Bignum.t * Bignum.t -> bool
val demo_params : unit -> params
(** Process-wide parameters from a fixed seed. *)

val pub_to_string : pub -> string
val pub_of_string : string -> pub option
val priv_to_string : priv -> string
val priv_of_string : string -> priv option
val signature_to_string : Bignum.t * Bignum.t -> string
val signature_of_string : string -> (Bignum.t * Bignum.t) option
