(** Server-side SSL session cache: session id -> master secret.

    With caching on, a returning client skips the RSA key exchange — the
    workload split that drives the two halves of Table 2. *)

type t

val create : ?enabled:bool -> unit -> t
val store : t -> sid:string -> master:bytes -> unit
val lookup : t -> sid:string -> bytes option
