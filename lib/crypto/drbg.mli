(** Deterministic random bit generator (splitmix64-based).

    All randomness in the simulation flows through explicit [Drbg.t] values
    so experiments are reproducible run to run.  Not cryptographically
    strong — strength is irrelevant inside the simulation, unpredictability
    {e to the simulated attacker} is what matters, and the attacker never
    sees the seed. *)

type t

val create : seed:int -> t
val next64 : t -> int
(** 63 usable pseudo-random bits (OCaml int). *)

val byte : t -> int
val bytes : t -> int -> bytes
val int_below : t -> int -> int
(** Uniform in [0, n). *)
