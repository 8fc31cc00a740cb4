(** POP3 command parsing and the server session loop, shared by the
    monolithic and Wedge-partitioned servers.

    The loop is parameterised over a {!backend} — the monolithic server
    implements it with direct filesystem access, the partitioned server in
    terms of callgate invocations — so protocol behaviour is identical by
    construction and tests can assert equivalence. *)

type command =
  | User of string
  | Pass of string
  | Stat
  | List
  | Retr of int
  | Dele of int
  | Quit
  | Unknown of string

(** Why the backend refused a mailbox command; each answers its own
    [-ERR] text. *)
type refusal =
  | Unauthenticated  (** [-ERR not authenticated] *)
  | No_such_message  (** [-ERR no such message] *)
  | Too_large  (** [-ERR reply too large]: the reply does not fit the backend's buffer *)

(** A mail body the backend writes straight into the reply: [fill buf
    pos] puts exactly [len] bytes at [buf.\[pos\]], so the server copies
    the mail once on its way out. *)
type body = { len : int; fill : bytes -> int -> unit }

type backend = {
  login : user:string -> password:string -> bool;
  stat : unit -> (int * int, refusal) result;  (** (count, total bytes) *)
  list_mails : unit -> ((int * int) list, refusal) result;  (** (msgno, size) *)
  retr : int -> (body, refusal) result;
  dele : int -> (unit, refusal) result;
}

val serve : recv:(int -> bytes) -> send:(bytes -> int -> int -> unit) -> backend -> unit
(** Run one POP3 session to QUIT or EOF, reading commands through a
    {!Wedge_net.Lineio} over [recv].  Every reply, a multi-line LIST or
    RETR included, leaves in exactly one [send buf off len], from one
    reply buffer the session owns and grows to fit its longest reply:
    [send] must not keep [buf]. *)
