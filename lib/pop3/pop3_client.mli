(** A POP3 client for tests, examples and benchmarks (the "remote user":
    plain OCaml, no compartments). *)

type t

val connect : Wedge_net.Chan.ep -> t
(** Consumes the greeting. *)

val login : t -> user:string -> password:string -> bool
val stat : t -> (int * int) option
val list_mails : t -> (int * int) list option
val retr : t -> int -> string option
val dele : t -> int -> bool
val quit : t -> unit
