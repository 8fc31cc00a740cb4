(** A process's virtual address space, with MMU-style enforcement.

    All compartment data access goes through checked reads and writes here;
    a protection violation raises {!Fault}, which the sthread machinery
    turns into compartment termination (the paper's SIGSEGV).  Writes to
    copy-on-write pages transparently take a private copy of the frame,
    charging the cost model.

    Translations are served through a per-address-space direct-mapped
    software TLB: the first access to a page walks the page table
    ([tlb_miss] cost) and caches the frame number + effective protection;
    subsequent accesses hit the cache ([tlb_hit] cost).  Every access
    resolves the frame's bytes through {!Physmem} — the read view for
    reads, the write view for writes — so a frame's first write (which
    gives a demand-zero frame its own host bytes) is seen at once through
    every address space's cached entry for it.  Every path that
    revokes or downgrades a translation — {!unmap_range}, COW breaks,
    {!set_page_prot}, {!set_page_tag}, {!destroy} — shoots the affected
    entries down, so a revocation is
    visible to the very next access.  A stale entry surviving revocation
    would be a default-deny bypass; the shootdown test suite asserts there
    is none. *)

type access =
  | Read
  | Write

type fault = {
  pid : int;
  addr : int;
  access : access;
  reason : string;
}

exception Fault of fault

val fault_to_string : fault -> string

(** {2 Memory-event stream (differential checking)}

    With a {!recorder} cell armed, every structural change to the address
    space and every access outcome emits one event, in global order.  A
    reference model (see [lib/check]'s [Refvm]) consumes the stream and
    independently recomputes what each access should have observed. *)
type mem_event =
  | Ev_map of {
      pid : int;
      vpn : int;
      frame : int;
      prot : Prot.page;
      seed : bytes option;
          (** [None]: a freshly allocated zeroed frame; [Some snap]: an
              existing frame mapped in, with its content at map time *)
    }
  | Ev_unmap of { pid : int; vpn : int }
  | Ev_prot of { pid : int; vpn : int; prot : Prot.page }
  | Ev_cow of {
      pid : int;
      vpn : int;
      frame : int;  (** the frame backing [vpn] after the break *)
      prot : Prot.page;
    }
  | Ev_destroy of { pid : int }
  | Ev_read of {
      pid : int;
      addr : int;
      value : bytes;
      u64 : bool;
          (** the value was observed through {!read_u64}'s 63-bit codec:
              it is the stored word with bit 63 cleared, and a model must
              mask its own word the same way before comparing *)
    }
  | Ev_write of {
      pid : int;
      addr : int;
      value : bytes;
          (** byte-identical to what landed in the frame (scalar stores
              are re-encoded exactly like the store itself, including the
              u64 bit-63 mask) *)
    }
  | Ev_fault of {
      pid : int;
      addr : int;  (** the faulting address, not the access start *)
      access : access;
      reason : string;
    }

type recorder = {
  mutable sink : (mem_event -> unit) option;
      (** the consumer: arm with [Some f], disarm with [None] *)
  mutable raised : exn option;
      (** the last exception [sink] raised, latched before it unwinds
          through the code that made the access *)
}
(** Shared by every address space of a kernel ({!Kernel.create} makes
    one).  The disarmed cost is one load and compare per access.  A
    checker's exception unwinds through compartment code; the latch
    lets the engine tell it from the compartment's own faults and let
    it end the run ({!Kernel.hook_raised}). *)

type t

val create :
  ?faults:Wedge_fault.Fault_plan.t ->
  ?trace:Wedge_sim.Trace.t ->
  ?recorder:recorder ->
  pid:int ->
  Physmem.t ->
  Wedge_sim.Clock.t ->
  Wedge_sim.Cost_model.t ->
  t
(** [faults] makes checked compartment accesses roll site ["vm.access"]
    once per access (a u64 or a bulk blit is one roll, not one per byte);
    a fired fault raises {!Fault} as a spurious protection fault.
    [trace] (default
    {!Wedge_sim.Trace.null}) records ["tlb.miss"]/["tlb.shootdown"]
    instants attributed to [pid] — off the TLB-hit fast path, which is
    never instrumented. *)

val pid : t -> int
val page_table : t -> Pagetable.t

(** {2 Mapping}

    Every mapping call refuses a vpn that is already mapped with
    [Invalid_argument] before it allocates a frame, takes a reference or
    charges anything: a refused mapping changes nothing. *)

val map_fresh :
  t -> addr:int -> pages:int -> prot:Prot.page -> tag:int option -> unit
(** Map freshly allocated zeroed frames at [addr] (page aligned). *)

val map_frame :
  t -> addr:int -> frame:int -> prot:Prot.page -> tag:int option -> unit
(** Map an existing frame (takes a reference). *)

type image
(** A snapshot of an address space: its read-only page table
    ({!Pagetable.base}, vpn-sorted arrays searched by bisection), what
    each page was built as (frame, protection and tag, kept in flat
    columns beside the table as the ground truth it is checked against),
    and one frame reference per page.  Every address space restored from
    the snapshot maps through that one table, and the references are the
    image's, shared by all its {e holders}: the owner that registered it
    (an app's pristine snapshot, a frozen pool image) and every address
    space whose table uses it as base.  Whichever holder leaves last
    drops the references. *)

val image : Physmem.t -> int array -> Pagetable.pte array -> image
(** [image pm vpns ptes]: page [i] maps [vpns.(i)] with the record
    [ptes.(i)].  Builds the snapshot's table from the two arrays, which
    it keeps along with the records (the caller must not write them; a
    record of another image's table may be passed, since no table is
    ever written), and takes one reference on each page's frame, which
    must be live.  The caller, who registers the image, is its first
    holder.  Raises [Invalid_argument] unless the arrays have one length
    and the vpns strictly increase, before taking any reference. *)

val snapshot : t -> addr:int -> pages:int -> image
(** Boot's checkpoint (§4.1): every page the range maps turns
    copy-on-write in this address space — in place, with the mandatory
    shootdown and an [Ev_prot] each — and is recorded copy-on-write at
    its frame in the returned {!image}, in one walk with one page-table
    lookup a page.  Unmapped pages are skipped. *)

val image_iter :
  image -> (vpn:int -> frame:int -> prot:Prot.page -> tag:int option -> unit) -> unit
(** Each page as it was built, in vpn order: the ground truth
    {!image_table} is checked against. *)

val image_tagged : image -> bool
(** Whether any of its pages carries a tag, found once when the image is
    built. *)

val image_table : image -> Pagetable.base
(** The shared table, for checking it against {!image_iter}.
    Read-only. *)

val image_size : image -> int
(** Number of pages. *)

val image_holders : image -> int
(** The owner (until {!release_image}) plus every address space that
    maps the image and has not been destroyed.  The image's references
    are live exactly while this is positive. *)

val release_image : image -> unit
(** The owner leaves: it drops its holder, and the image's references
    if no address space still maps it (else the last one's {!destroy}
    drops them).  Raises [Invalid_argument] if the owner already
    released it. *)

val map_image : t -> image -> unit
(** Install a snapshot under an empty address space by pointing it at the
    image's shared table and adding the space as a holder: nothing is
    copied, allocated or referenced per page, so a spawn's host cost does
    not grow with the image.  A write, protection change or retag copies
    an entry into the address space's own table first, and the copy
    takes its own frame reference, so it never reaches the image or its
    other users, and a COW break still finds the frame shared.  An unmap
    of a page seen through the table only hides it.  No cost is charged —
    each caller charges its own spawn price.  Recorder events are emitted
    per page so differential reference VMs track the mappings.  Raises
    [Invalid_argument], before adding the holder, if the address space
    already maps a page or the image's last holder has left. *)

val mapped_image : t -> image option
(** The image this address space maps through, until {!destroy}. *)

val unmap_range : t -> addr:int -> pages:int -> unit
(** Unmaps and shoots down any cached translations for the range. *)

val set_page_prot : t -> addr:int -> prot:Prot.page -> unit
(** Kernel bookkeeping: rewrite one page's protection in place (no cost
    charged — callers account for their own PTE work) with the mandatory
    shootdown.  Raises [Invalid_argument] if unmapped. *)

val set_page_tag : t -> addr:int -> tag:int option -> unit
(** Kernel bookkeeping: retag one page in place, with shootdown.
    Raises [Invalid_argument] if unmapped. *)

val destroy : t -> unit
(** Unmap everything (flushes the TLB first): drops the references of
    the address space's own entries, then its hold on the image it maps
    through, if any.  Never visits the image's pages unless it is the
    image's last holder, and allocates nothing per page. *)

(** {2 Software TLB} *)

val tlb_flush : t -> unit
(** Drop every cached translation (address-space teardown / switch). *)

val tlb_hits : t -> int
val tlb_misses : t -> int
val tlb_shootdowns : t -> int
(** Monotonic per-address-space counters, surfaced through kernel stats
    and [bench -- metrics]. *)

(** {2 Checked access (compartment code)} *)

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit

val read_into : t -> int -> bytes -> int -> int -> unit
(** [read_into t addr buf pos len] is the checked bulk read: [len] bytes
    from [addr] into [buf] at [\[pos, pos + len)].  Negative or absurd
    lengths (over 64 MiB, beyond any simulated region) fault, and a
    range outside [buf] raises [Invalid_argument], both before any
    translation, fault roll or byte lands — so attacker-fabricated length
    fields hit the MMU, not the host allocator.  One fault roll per call
    (none for [len = 0]); translates once per page crossed, not once per
    byte.  An armed
    recorder sees the same [Ev_read] as a {!read_bytes} of the range. *)

val read_bytes : t -> int -> int -> bytes
(** {!read_into} a fresh buffer, allocated only once the length is in
    range and, for a range of more than one page, only once {!can_read}
    finds it readable: an unreadable one takes the fault the copy would
    (same roll, translations and reason) with nothing allocated.  Nothing
    else holds the result ([Engine.read_string] hands it out as a
    string). *)

val write_bytes : t -> int -> bytes -> unit
(** Bulk write; atomic across pages: every page is translated (and any
    COW break taken) before the first byte lands, so a fault on a later
    page never leaves a partial write on an earlier one.  The source is
    only read: it is neither kept nor mutated ([Engine.write_string]
    passes a string's bytes without copying them). *)

val read_u16 : t -> int -> int
val write_u16 : t -> int -> int -> unit
val read_u32 : t -> int -> int
val write_u32 : t -> int -> int -> unit

val read_u64 : t -> int -> int
(** Little-endian, 63-bit domain: returns the low 63 bits of the stored
    64-bit word as a two's-complement OCaml int (bit 62 of the word is
    the result's sign bit; bit 63 is dropped).  Round-trips exactly with
    {!write_u64} for every OCaml int, including negatives.  Fine for
    simulated pointers and lengths, which never need bit 63. *)

val write_u64 : t -> int -> int -> unit
(** Stores the int's 63-bit pattern zero-extended to a 64-bit LE word
    (bit 63 of the stored word is always 0). *)

val can_read : t -> addr:int -> len:int -> bool
val can_write : t -> addr:int -> len:int -> bool
(** Advisory probes for policy decisions ("would this access be allowed
    right now").  They walk the page table directly — never the TLB,
    which they must not pollute — charge nothing, and are exempt from
    injected-fault rolls: a probe is a question, not an access, and no
    real MMU faults on a question. *)

(** {2 Oracle accessors (invariant checking)}

    Pure reads of ground truth: nothing here charges the clock, touches
    the TLB, or rolls injected faults, so an oracle running at every
    context switch cannot perturb the schedule it is checking. *)

val tlb_check : t -> string list
(** Validate every servable TLB entry (valid vpn, current epoch) against
    the page table: same frame, same protection and tag.  (An entry holds
    no bytes: every access resolves them through {!Physmem}.)  Returns one
    message per disagreement — any entry
    here is a revocation that failed to shoot down, i.e. a default-deny
    bypass.  Empty means consistent. *)
