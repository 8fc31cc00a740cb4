(** Arbitrary-precision unsigned integers, from scratch (base 2{^26} limbs),
    sufficient for the RSA/DSA arithmetic the mini-SSL and SSH substrates
    need.  All values are non-negative; [sub] requires a >= b. *)

type t

val one : t
val two : t
val of_int : int -> t
val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val num_bits : t -> int
val is_even : t -> bool

val add : t -> t -> t
val sub : t -> t -> t
(** @raise Invalid_argument if the result would be negative. *)

val mul : t -> t -> t
val rem : t -> t -> t
(** Limb by limb (Knuth's algorithm D).  @raise Division_by_zero *)

val shift_right : t -> int -> t
val modexp : base:t -> exp:t -> m:t -> t
(** For odd [m] of up to 511 limbs (13,286 bits), Montgomery
    multiplication that carries once per product rather than once per
    limb step, scanning exponents longer than 64 bits in 4-bit windows
    and shorter ones bit by bit.  Even and wider moduli take the binary
    ladder on {!mul} and {!rem}. *)

val modinv : t -> m:t -> t
(** Modular inverse. @raise Not_found if not coprime with [m]. *)

val of_bytes_be : bytes -> t
val to_bytes_be : ?len:int -> t -> bytes
(** Big-endian; left-padded with zeros to [len] when given.
    @raise Invalid_argument if the value does not fit in [len]. *)

val of_hex : string -> t

val of_hex_sub : string -> pos:int -> len:int -> t
(** [of_hex] of the [len] characters of the string from [pos], without
    copying them out.  @raise Invalid_argument on a range outside the
    string or a character that is not a hex digit, ['_'] or [' ']. *)

val to_hex : t -> string

val random_bits : Drbg.t -> bits:int -> t
(** Exactly [bits] bits (top bit set). *)

val random_below : Drbg.t -> t -> t
(** Uniform in [0, n). *)

module For_testing : sig
  val divmod : t -> t -> t * t
  (** [(a / b, a mod b)] by the division {!rem} runs: the quotient no
      public call returns.  @raise Division_by_zero *)

  val bit : t -> int -> bool
  (** Bit [i] of [a], as {!modexp} scans its exponent. *)
end
