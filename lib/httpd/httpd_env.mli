(** Shared environment for the Apache/OpenSSL stand-ins: the server RSA key
    held in tagged memory, the SSL session cache, the document root, and
    crypto cost accounting against the simulated clock. *)

type t = {
  app : Wedge_core.Wedge.app;
  main : Wedge_core.Wedge.ctx;
  priv : Wedge_crypto.Rsa.priv;  (** kept outside the simulation only so
                                     tests/clients can pin the public key *)
  key_tag : Wedge_mem.Tag.t;
  key_addr : int;  (** length-value block holding the serialised key *)
  cache : Wedge_tls.Session.t;
      (** in-process cache used by the monolithic server *)
  scache : Sess_store.t;
      (** the partitioned servers' cache, held in tagged memory readable
          only by the session-establishment callgates *)
  rng : Wedge_crypto.Drbg.t;
  mutable served : int;
  worker_sid : string option;
      (** SELinux SID applied to network-facing sthreads when installed
          with [~strict_selinux:true]; [None] = the paper's permissive
          setup (§5) *)
}

val docroot : string
val index_body : string

val install :
  ?image_pages:int ->
  ?session_cache:bool ->
  ?strict_selinux:bool ->
  ?seed:int ->
  Wedge_kernel.Kernel.t ->
  t
(** Build the application: document root in the VFS, app booted, private
    key generated and stored in its own tag. *)

val cert : t -> string
val read_priv : Wedge_core.Wedge.ctx -> t -> Wedge_crypto.Rsa.priv
(** Deserialise the private key out of tagged memory — callable only from
    a compartment holding read permission on [key_tag]. *)

(** {2 Crypto cost accounting} *)

type crypto_op =
  | Rsa_priv
  | Cipher of int
  | Mac

val charge : Wedge_core.Wedge.ctx -> crypto_op -> unit

(** {2 Request handling shared by all variants} *)

val handle_request : Wedge_core.Wedge.ctx -> string -> string
(** Parse a request line, serve the file from the caller's filesystem view,
    charge the fixed application cost. *)

val send_degraded : server:string -> Wedge_core.Wedge.ctx -> Wedge_net.Chan.ep -> unit
(** The partitioned servers' degraded answer when a connection's
    compartments are gone: the TLS keys died with them, so the master
    bumps [server ^ ".degraded"] and sends a plaintext 500 — the client
    sees a definite failure instead of a hang.  Best-effort: the channel
    itself may already be reset. *)
