(** A seeded splitmix64 stream: deterministic, cheap, and independent of
    the OCaml stdlib's global [Random] state, so every randomized piece of
    the stack (scheduler policies, exploration drivers, property tests)
    can be replayed from a printed integer seed. *)

type t

val create : int -> t
val int : t -> int -> int
(** [int t n] draws uniformly (up to negligible modulo bias) in [0, n).
    @raise Invalid_argument when [n <= 0]. *)

val float : t -> float
(** Uniform draw in [0, 1) with 53 bits of precision. *)

val derive : seed:int -> int -> int
(** [derive ~seed i] is the seed for substream [i] of a run seeded with
    [seed] — one hash-finalizer application, so consecutive [i] give
    uncorrelated streams.  Always non-negative. *)
