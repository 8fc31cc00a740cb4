(** Man-in-the-middle interposition (threat model of §5.1.2).

    The interposer sits between a client-side and a server-side endpoint
    and pumps bytes in both directions, forwarding every chunk unmodified
    and recording it, modelling a passive eavesdropper who captures full
    traces for later decryption once a key leaks. *)

type direction =
  | Client_to_server
  | Server_to_client

type t

val create : unit -> t

val splice : t -> client_side:Chan.ep -> server_side:Chan.ep -> unit
(** Spawn the two pump fibers.  Must be called inside [Fiber.run]. *)

val captured : t -> direction -> string
(** Everything observed so far in one direction. *)
