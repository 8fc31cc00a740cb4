(** Shared environment for the OpenSSH stand-ins: user accounts (password,
    DSA user key, S/Key chain), host keys in tagged memory, configuration
    and public data readable by unprivileged workers. *)

type user = {
  name : string;
  uid : int;
  password : string;
  skey_passphrase : string;
  skey_count : int;
  key_seed : int;  (** deterministic seed for the user's DSA key pair *)
}

type t = {
  app : Wedge_core.Wedge.app;
  main : Wedge_core.Wedge.ctx;
  host_rsa : Wedge_crypto.Rsa.priv;  (** outside the simulation, for client pinning *)
  host_dsa : Wedge_crypto.Dsa.priv;
  hostkey_tag : Wedge_mem.Tag.t;  (** private keys: callgates only *)
  rsa_addr : int;
  dsa_addr : int;
  public_tag : Wedge_mem.Tag.t;  (** host public keys + config: worker-readable *)
  pub_rsa_addr : int;
  pub_dsa_addr : int;
  config_addr : int;
  rng : Wedge_crypto.Drbg.t;
  users : user list;
}

val install :
  ?image_pages:int -> ?seed:int -> Wedge_kernel.Kernel.t -> t
(** Build the VFS world (shadow, authorized_keys, S/Key db, upload dir,
    empty chroot) for the built-in users, boot the app, place host keys in
    tagged memory. *)

val user_key : user -> Wedge_crypto.Dsa.priv
(** The user's DSA key pair (derived from [key_seed]). *)

val shadow_path : string
val skey_path : string

val read_host_rsa : Wedge_core.Wedge.ctx -> t -> Wedge_crypto.Rsa.priv
val read_host_dsa : Wedge_core.Wedge.ctx -> t -> Wedge_crypto.Dsa.priv
(** Deserialise host private keys from tagged memory (requires read
    permission on [hostkey_tag]). *)

val lookup_shadow : string -> user:string -> string option
(** Find a user's line in shadow-file contents. *)

val find_user : t -> string -> user option
