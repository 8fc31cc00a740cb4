(** Simulated time.

    One clock per simulated machine; every charged operation advances it.
    Benchmarks read elapsed simulated nanoseconds to reproduce the paper's
    timing results deterministically. *)

type t

val create : unit -> t
(** A clock at time zero. *)

val charge : t -> int -> unit
(** [charge t ns] advances simulated time by [ns] nanoseconds. *)

val now : t -> int
(** Current simulated time in nanoseconds since creation. *)
