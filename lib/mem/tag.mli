(** Memory tags (§3.2).

    A tag names a contiguous segment of the shared application address
    space.  The namespace is flat: privileges for one tag never imply
    privileges for another.  The registry is application-wide (the kernel
    holds the tag-to-segment mapping). *)

type t = {
  id : int;
  base : int;   (** segment base address (page aligned) *)
  pages : int;
  name : string;  (** programmer-visible label, for policies and Crowbar *)
  mutable live : bool;
  mutable frames : int array;
      (** backing physical frames; the registry holds one reference to each
          so a tag outlives the sthread that created it *)
}

val size_bytes : t -> int

(** Application-wide tag registry. *)
type registry

val registry_create : unit -> registry
val register : registry -> name:string -> base:int -> pages:int -> t
val find_by_addr : registry -> int -> t option
(** The live tag whose segment contains the given address, if any. *)

val delete : registry -> t -> unit
(** Mark dead (the segment's frames are released by unmapping). *)

val live_tags : registry -> t list
