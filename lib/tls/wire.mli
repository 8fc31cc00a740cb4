(** Message framing for the mini-SSL protocol ("wssl").

    Each message is [type byte ++ u16 length ++ payload] over an abstract
    byte-stream [io], so the same protocol code runs over simulated network
    channels, over compartment file descriptors, or over an attacker's
    captured trace. *)

exception Closed
(** The peer closed mid-message. *)

exception Malformed of string
(** A frame whose type byte names no message.  Framing is lost with it,
    so like {!Closed} it ends the connection — and only that one. *)

type io = {
  recv : int -> bytes;  (** exactly n bytes. @raise Closed on EOF *)
  send : bytes -> unit;
}

val io_of_fns : recv:(int -> bytes option) -> send:(bytes -> unit) -> io
(** Adapt read-up-to-n functions ([None] or an empty read = EOF) into an
    exact-read [io].  [recv k] must return at most [k] bytes.  An exact
    read of [n] bytes calls [recv n]; if that falls short it allocates one
    [n]-byte buffer and calls [recv] for the rest until it is full, and a
    read of 0 bytes does not call [recv] at all. *)

(** Message types of the protocol. *)
type mtype =
  | Client_hello
  | Server_hello
  | Certificate
  | Client_key_exchange
  | Finished
  | App_data
  | Alert

val mtype_to_char : mtype -> char

val send_msg : io -> mtype -> bytes -> unit
val recv_msg : io -> mtype * bytes
(** @raise Closed on EOF, {!Malformed} on an unknown message type. *)

val frame : mtype -> bytes -> bytes
(** The exact bytes [send_msg] would transmit (for transcript hashing and
    for attackers crafting injections). *)

val parse_frames : string -> (mtype * bytes) list
(** Parse a captured byte trace into messages (eavesdropper's view);
    ignores a trailing partial frame. *)
