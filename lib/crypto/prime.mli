(** Primality testing and prime generation (Miller–Rabin, 20 rounds,
    with small-prime trial division). *)

val is_prime : Drbg.t -> Bignum.t -> bool
val gen_prime : Drbg.t -> bits:int -> Bignum.t
(** A random prime with exactly [bits] bits.  @raise Failure if none of
    [100 * bits] candidates passes, which a working test makes less
    likely than e{^-288}. *)
