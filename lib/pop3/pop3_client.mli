(** A POP3 client for tests, examples and benchmarks (the "remote user":
    plain OCaml, no compartments). *)

type t

val connect : Wedge_net.Chan.ep -> t
(** Consumes the greeting. *)

val login : t -> user:string -> password:string -> bool
val stat : t -> (int * int) option
val retr : t -> int -> string option
(** [None] on [-ERR], at EOF before the whole body, and for a declared
    length below zero or past the line cap. *)

val quit : t -> unit
