(** Primality testing and prime generation (Miller–Rabin with small-prime
    trial division). *)

val is_prime : ?rounds:int -> Drbg.t -> Bignum.t -> bool
val gen_prime : ?rounds:int -> Drbg.t -> bits:int -> Bignum.t
(** A random prime with exactly [bits] bits. *)
