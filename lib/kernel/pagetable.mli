(** Per-process page table: virtual page number to frame + protection.

    A tag id is recorded on pages that belong to tagged-memory segments so
    that policy checks and Crowbar attribution can name them.

    A table is a private overlay on top of at most one shared {!base}: the
    entries of a snapshot, built once and then mapped by every address
    space restored from it, in O(1) and without copying them.  A base is
    two flat arrays in vpn order: a lookup tries the page's offset from
    the first vpn, which finds every page of the dense run starting there
    at once, then bisects.  Lookups, {!count}, {!iter} and {!fold} see
    the overlay together with the part of the base this table has not
    unmapped.

    {b Copy before mutate.}  A base is shared, so nothing may write one
    after {!base} builds it.  {!find} may return a base entry, which is
    read-only; a caller that rewrites an entry in place (a protection
    change, a retag, a COW frame swap) must obtain it with {!find_private},
    which first copies a base entry into the overlay. *)

type pte = {
  mutable frame : int;
  mutable prot : Prot.page;
  mutable tag : int option;
}

type t

val create : unit -> t

val epoch : t -> int
(** Generation counter, advanced by every {!map}, {!unmap}, {!set_base}
    and {!clear}.  A software TLB stamps each cached translation with the
    epoch at fill time, so any structural change to the address space
    invalidates every cached entry with one compare.  In-place pte
    mutations (protection changes, COW frame swaps) do {e not} advance
    the epoch — those paths must shoot the affected entries down
    explicitly (see {!Vm.set_page_prot}).  Nor does {!find_private}'s
    copy, which leaves the translation unchanged. *)

val map : t -> vpn:int -> frame:int -> prot:Prot.page -> tag:int option -> unit
(** Raises [Invalid_argument] if [vpn] is already mapped, before
    changing anything. *)

val unmap : t -> vpn:int -> pte option
(** Removes and returns the entry, if mapped.  A base entry is only
    hidden from this table; the returned record must not be written. *)

val find : t -> vpn:int -> pte option
(** The entry [vpn] maps.  It may belong to the shared base: read it,
    never write it (see {!find_private}). *)

val find_private : t -> vpn:int -> pte option
(** Like {!find}, but the result belongs to this table alone, so the
    caller may rewrite it in place: a base entry is first copied into the
    overlay. *)

val mem : t -> vpn:int -> bool

val owns : t -> vpn:int -> bool
(** [vpn] is mapped by an entry of this table's own: mapped here, or a
    base entry {!find_private} copied.  An entry seen through the base
    is not. *)

val find_own : t -> vpn:int -> pte option
(** The entry [vpn] maps if it is this table's own (see {!owns}), which
    the caller may rewrite in place; [None] for an entry seen through
    the base. *)

val count : t -> int

val iter : (int -> pte -> unit) -> t -> unit
(** The table's own entries in no set order, then the base entries it
    still sees in vpn order. *)

val iter_own : (int -> pte -> unit) -> t -> unit
(** Like {!iter}, over this table's own entries only (see {!owns}):
    the cost of a walk is what the table holds, not what its base
    holds. *)

val fold : (int -> pte -> 'a -> 'a) -> t -> 'a -> 'a
(** In {!iter}'s order. *)

val snapshot : t -> prot:(pte -> Prot.page) -> int array * pte array
(** Every entry the table maps, in vpn order, with the protection [prot]
    gives it: the arrays a new base is built from ({!base}).  An entry
    seen through the base whose protection [prot] keeps is the base's own
    record, shared (no base is ever written); every other entry is a
    fresh copy.  The table's own entries are sorted, the base's are
    merged in as they lie. *)

val clear : t -> unit
(** Drops every mapping and the base, allocating nothing. *)

(** {2 Shared bases} *)

type base
(** A read-only table of entries, shared by every table it is installed
    in: its vpns in one sorted [int array], its records in another array
    beside it. *)

val base : int array -> pte array -> base
(** [base vpns ptes] maps [vpns.(i)] with [ptes.(i)], keeping both
    arrays; the caller must not write them or the records after.  Raises
    [Invalid_argument] unless the arrays have one length and the vpns
    strictly increase (no vpn listed twice, none out of order). *)

val set_base : t -> base -> unit
(** Installs [base] under an empty table in O(1).  Raises
    [Invalid_argument], before changing anything, if the table already
    maps a page or has a base. *)

val base_find : base -> vpn:int -> pte option
(** The base's own entry, for checking that it still matches the
    snapshot it was built from.  Read-only. *)

val base_count : base -> int
