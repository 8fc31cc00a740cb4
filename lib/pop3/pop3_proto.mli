(** POP3 command parsing and the server session loop, shared by the
    monolithic and Wedge-partitioned servers.

    The loop is parameterised over a {!backend} — the monolithic server
    implements it with direct filesystem access, the partitioned server in
    terms of callgate invocations — so protocol behaviour is identical by
    construction and tests can assert equivalence.

    The [XPLOIT] pseudo-command models a vulnerability in the
    network-facing parser: when the server was built with an exploit hook,
    the attacker's payload runs {e in the compartment that parses client
    input}, which is the paper's attacker model. *)

type command =
  | User of string
  | Pass of string
  | Stat
  | List
  | Retr of int
  | Dele of int
  | Quit
  | Xploit
  | Unknown of string

val parse : string -> command

(** Why the backend refused a mailbox command; each answers its own
    [-ERR] text. *)
type refusal =
  | Unauthenticated  (** [-ERR not authenticated] *)
  | No_such_message  (** [-ERR no such message] *)
  | Too_large  (** [-ERR reply too large]: the reply does not fit the backend's buffer *)

type backend = {
  login : user:string -> password:string -> bool;
  stat : unit -> (int * int, refusal) result;  (** (count, total bytes) *)
  list_mails : unit -> ((int * int) list, refusal) result;  (** (msgno, size) *)
  retr : int -> (string, refusal) result;
  dele : int -> (unit, refusal) result;
}

val serve : Wedge_net.Lineio.t -> backend -> exploit:(unit -> unit) option -> unit
(** Run one POP3 session to QUIT or EOF.  Every reply, a multi-line
    LIST or RETR included, leaves in exactly one {!Wedge_net.Lineio.write}. *)
