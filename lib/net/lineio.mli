(** Buffered line-oriented I/O over abstract byte streams — the classic
    text-protocol front end (POP3, HTTP, SSH version exchange).  Works over
    compartment file descriptors or raw channels alike.

    The buffer uses an offset cursor (consuming a line advances a read
    position; no per-line copying of the remainder), and lines are capped
    at 1 MiB, far beyond any legitimate line, so a client dribbling an
    endless line cannot
    balloon the buffer: overflow poisons the stream ({!read_line} returns
    [None], {!overflowed} turns true) and the owning server decides how
    to reject. *)

type t

val create : recv:(int -> bytes) -> send:(bytes -> unit) -> unit -> t
(** [recv n] returns up to [n] bytes, empty meaning EOF. *)

val of_chan : Chan.ep -> t

val read_line : t -> string option
(** Next line without its terminator (accepts LF and CRLF); [None] at
    EOF or once the stream overflowed its line cap.  A final
    unterminated line is returned as-is. *)

val read_exact : t -> int -> bytes option
(** The next [n] bytes, in a fresh buffer the caller owns: the bytes
    already buffered first, then [recv] asked for exactly what is still
    missing, so the line buffer never grows to hold a body.  Buffered
    bytes past [n] stay for the next {!read_line}.  [None] at EOF before
    [n] bytes (what arrived of them is dropped), once the stream
    overflowed, and for an [n] below zero or past the line cap, which is
    refused before anything is allocated. *)

val write_line : t -> string -> unit
(** Appends CRLF. *)

val overflowed : t -> bool
(** True once a line exceeded the cap; the stream is poisoned (reads
    return [None]) but the send side still works, so the server can emit
    a rejection before closing. *)
