(** Virtual address-space layout shared by all sthreads of one application.

    Sthreads of the same application see the same layout (they are carved
    out of one original process, §4.1): the data segment holds globals and
    the pristine library image; each sthread has a private heap and stack at
    fixed addresses (private pages, so overlap across sthreads is fine); tag
    segments are allocated from a dedicated non-merging region (§4.1:
    [tag_new] never merges neighbouring mappings). *)

val data_base : int
val heap_base : int
val heap_pages : int
val stack_base : int
val stack_pages : int
val tag_base : int

type t

val create : unit -> t

val alloc_tag_range : t -> pages:int -> int
(** Reserve an address range for a tag segment; ranges are separated by a
    guard page so neighbouring tags never merge. *)

val pages_for : bytes_len:int -> int
(** Number of pages needed to hold [bytes_len] bytes (at least 1). *)
