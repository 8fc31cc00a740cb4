(** S/Key one-time passwords (RFC 1760 scheme over SHA-256): the server
    stores [H^n(passphrase ++ seed)]; a login reveals [H^(n-1)], which the
    server verifies by hashing once and then stores for next time.

    One of OpenSSH's authentication methods behind a callgate in §5.2, and
    the subject of the S/Key information-leak lesson: a server must issue
    challenges even for unknown users or it becomes a username oracle. *)

val chain : passphrase:string -> seed:string -> count:int -> string
(** [H^count(passphrase ++ seed)] in hex; [count >= 1]. *)

type entry = {
  user : string;
  seq : int;       (** next response must be H^(seq-1) *)
  seed : string;
  stored : string;  (** hex of H^seq *)
}

val entry_to_line : entry -> string
val entry_of_line : string -> entry option

val challenge : entry -> int * string
(** (seq-1, seed) to present to the client. *)

val respond : passphrase:string -> seed:string -> seq:int -> string
(** The client's response to challenge (seq, seed). *)

val verify : entry -> response:string -> entry option
(** [Some updated] on success (sequence decremented, stored replaced). *)

val exhausted : entry -> bool
(** No logins left (seq <= 1). *)
