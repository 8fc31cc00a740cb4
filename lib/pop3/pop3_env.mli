(** Test/demo environment for the POP3 servers: user accounts with salted
    password hashes in /etc/pop3.passwd, and per-user maildirs under
    /var/mail. *)

type user = {
  name : string;
  uid : int;
  password : string;
  mails : string list;
}

val default_users : user list
(** alice and bob, with distinct mailboxes. *)

val install : Wedge_kernel.Kernel.t -> user list -> unit
(** Populate the VFS (passwd file readable only by root; mail owned by the
    recipient). *)

val passwd_path : string
val maildir : string -> string
(** Mail directory for a user name. *)

val check_password : passwd_line:string -> user:string -> password:string -> int option
(** Verify against one passwd line; [Some uid] on success. *)

val lookup_line : passwd_file:string -> user:string -> string option
