(** Man-in-the-middle interposition (threat model of §5.1.2).

    The interposer sits between a client-side and a server-side endpoint and
    pumps bytes in both directions through a programmable handler that can
    eavesdrop, forward, modify, drop or inject.  Everything forwarded is
    also recorded, modelling an attacker who captures full traces for later
    decryption once a key leaks. *)

type direction =
  | Client_to_server
  | Server_to_client

type action =
  | Forward            (** pass the chunk through unmodified *)
  | Replace of bytes   (** substitute the chunk *)
  | Drop               (** swallow the chunk *)

type t

val create : ?handler:(direction -> bytes -> action) -> unit -> t
(** Default handler forwards everything (passive eavesdropper). *)

val splice : t -> client_side:Chan.ep -> server_side:Chan.ep -> unit
(** Spawn the two pump fibers.  Must be called inside [Fiber.run]. *)

val captured : t -> direction -> string
(** Everything observed so far in one direction. *)

val stop : t -> unit
(** Close both spliced endpoints. *)
