(** Named operation counters for the simulated kernel.

    Used by benchmarks and tests to assert {e how many} primitive operations
    an experiment performed (e.g. callgates invoked per Apache request,
    tag-cache hit rates). *)

type t

val create : unit -> t

val bump : t -> string -> unit
(** Increment the named counter by one. *)

val add : t -> string -> int -> unit
(** Increment the named counter by [n]. *)

val get : t -> string -> int
(** Current value, 0 if never bumped. *)

val to_list : t -> (string * int) list
(** All counters, sorted by name. *)

val pp : Format.formatter -> t -> unit
