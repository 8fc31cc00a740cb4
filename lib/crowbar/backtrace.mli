(** Call-stack tracking for cb-log (§4.2): the simulation's stand-in for
    walking saved frame pointers.  Snapshots are O(1) — the current stack
    is an immutable list shared by every access record taken while it is
    live. *)

type frame = {
  fn : string;
  file : string;
  line : int;
}

type t

val create : unit -> t
val push : t -> frame -> unit
val pop : t -> unit
val current : t -> frame list
(** Innermost first. *)

val frame_to_string : frame -> string
