(** In-memory Unix-like filesystem with owners, modes and chroot.

    Supports the partitioned applications: shadow password files readable
    only by root, per-user mail spools and home directories, empty chroot
    jails for unprivileged sthreads (§5.2), and document roots. *)

type error =
  | Enoent
  | Eacces
  | Enotdir
  | Eisdir
  | Eexist

type t

val create : unit -> t
(** Fresh filesystem with a root directory owned by uid 0. *)

(** {2 Administrative interface (no permission checks; test/app setup)} *)

val mkdir_p : t -> ?uid:int -> ?mode:int -> string -> unit
val install : t -> ?uid:int -> ?mode:int -> string -> string -> unit
(** [install t path contents] creates or replaces a file. *)

(** {2 Checked interface (used by compartments through the kernel)}

    All paths are resolved under [root] (the caller's filesystem root, i.e.
    chroot), and permission-checked against [uid] using owner/other mode
    bits; uid 0 bypasses checks. *)

val read_file :
  t -> root:string -> uid:int -> string -> (string, error) result

val write_file :
  t -> root:string -> uid:int -> string -> string -> (unit, error) result
(** Overwrites an existing file or creates a new one in an existing,
    writable directory. *)

val unlink : t -> root:string -> uid:int -> string -> (unit, error) result
val readdir : t -> root:string -> uid:int -> string -> (string list, error) result
