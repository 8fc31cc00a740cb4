(** Buffered line-oriented I/O over abstract byte streams — the classic
    text-protocol front end (POP3, HTTP, SSH version exchange).  Works over
    compartment file descriptors or raw channels alike.

    The buffer uses an offset cursor (consuming a line advances a read
    position; no per-line copying of the remainder), and lines are capped
    at [max_line] bytes so a client dribbling an endless line cannot
    balloon the buffer: overflow poisons the stream ({!read_line} returns
    [None], {!overflowed} turns true) and the owning server decides how
    to reject. *)

type t

val default_max_line : int
(** 1 MiB: far beyond any legitimate line. *)

val create : ?max_line:int -> recv:(int -> bytes) -> send:(bytes -> unit) -> unit -> t
(** [recv n] returns up to [n] bytes, empty meaning EOF.  [max_line]
    defaults to {!default_max_line}. *)

val of_chan : ?max_line:int -> Chan.ep -> t

val read_line : t -> string option
(** Next line without its terminator (accepts LF and CRLF); [None] at
    EOF or once the stream overflowed its line cap.  A final
    unterminated line is returned as-is. *)

val read_exact : t -> int -> bytes option
val write : t -> bytes -> unit
val write_line : t -> string -> unit
(** Appends CRLF. *)

val overflowed : t -> bool
(** True once a line exceeded [max_line]; the stream is poisoned (reads
    return [None]) but the send side still works, so the server can emit
    a rejection before closing. *)
