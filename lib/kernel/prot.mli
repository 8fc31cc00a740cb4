(** Memory protection modes.

    The paper grants tag permissions as read, read-write or copy-on-write
    (§3.1), and explicitly forbids write-only mappings (§3.1, last
    paragraph).  [grant] is the policy-level permission attached to a tag in
    a security context; [page] is the page-level protection the simulated
    MMU enforces. *)

(** Policy-level permission for a memory tag. *)
type grant =
  | R    (** read-only *)
  | RW   (** read-write *)
  | COW  (** copy-on-write: reads see the shared data, the first write takes
             a private copy *)

(** Page-level protection bits. [pcow] marks a page whose next write must
    first take a private copy of the underlying frame. *)
type page = {
  pr : bool;
  pw : bool;
  pcow : bool;
}

val page_none : page
val page_rw : page
val page_cow : page

val page_of_grant : grant -> page

val grant_subsumes : parent:grant -> child:grant -> bool
(** Whether a parent holding [parent] on a tag may grant [child] to an
    sthread it creates (§3.1: children get equal or lesser privilege).
    [RW] subsumes everything; [R] and [COW] subsume [R] and [COW] (a
    copy-on-write child of a reader never affects the shared data). *)

val grant_to_string : grant -> string
val page_to_string : page -> string
