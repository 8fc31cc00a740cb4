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
    revokes or downgrades a translation — {!unmap_range},
    {!protect_range}, COW breaks, {!set_page_prot}, {!set_page_tag},
    {!destroy} — shoots the affected entries down, so a revocation is
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
      kernel : bool;
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
      kernel : bool;
    }
  | Ev_fault of {
      pid : int;
      addr : int;  (** the faulting address, not the access start *)
      access : access;
      reason : string;
      kernel : bool;
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
  ?limits:Rlimit.t ->
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
    [limits] charges a frame-quota unit for every private frame this
    address space allocates ({!map_fresh} pages and COW copies; shared
    mappings are free), released again on unmap/destroy.  Exhaustion
    raises {!Rlimit.Resource_exhausted}.  [trace] (default
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

(** One page of a frozen snapshot image: the frame it pins, the
    protection a stamped address space maps it with, and its tag. *)
type frozen_page = {
  fz_vpn : int;
  fz_frame : int;
  fz_prot : Prot.page;
  fz_tag : int option;
}

type image
(** A snapshot of an address space: its page records, and the read-only
    page table ({!Pagetable.base}) built from them once.  Every address
    space restored from the snapshot maps through that one table. *)

val image : frozen_page list -> image
(** Builds the snapshot's table.  The caller holds the frame references
    the records stand for. *)

val image_pages : image -> frozen_page list
(** The records the table was built from, in the order given. *)

val image_table : image -> Pagetable.base
(** The shared table, for checking it against {!image_pages}.
    Read-only. *)

val image_size : image -> int
(** Number of pages. *)

val map_image : t -> image -> unit
(** Install a snapshot under an empty address space by pointing it at the
    image's shared table: nothing is copied and nothing is allocated per
    page, so a spawn's host cost does not grow with the image.  Each
    page still takes one frame reference, so refcounts, COW breaks and
    the image's discard behave as if the entries had been copied; writes,
    protection changes and retags copy an entry into the address space's
    own table first, so they never reach the image or its other users.
    No cost is charged — each caller charges its own spawn price.
    Recorder events are emitted per page so differential reference VMs
    track the mappings.  Raises [Invalid_argument], before taking any
    reference, if the address space already maps a page. *)

val share_range :
  src:t -> dst:t -> addr:int -> pages:int -> prot:Prot.page -> unit
(** Map [src]'s frames for [addr..] into [dst] with protection [prot]
    (sharing, not copying; used to grant tagged memory to sthreads). *)

val unmap_range : t -> addr:int -> pages:int -> unit
(** Unmaps and shoots down any cached translations for the range. *)

val protect_range : t -> addr:int -> pages:int -> prot:Prot.page -> unit
(** Rewrites the protection of every mapped page in the range, charging a
    [pte_copy]-class cost per page, and shoots down any cached
    translations so the downgrade takes effect on the very next access. *)

val set_page_prot : t -> addr:int -> prot:Prot.page -> unit
(** Kernel bookkeeping: rewrite one page's protection in place (no cost
    charged — callers account for their own PTE work) with the mandatory
    shootdown.  Raises [Invalid_argument] if unmapped. *)

val set_page_tag : t -> addr:int -> tag:int option -> unit
(** Kernel bookkeeping: retag one page in place, with shootdown.
    Raises [Invalid_argument] if unmapped. *)

val destroy : t -> unit
(** Unmap everything, releasing frame references and the frame-quota
    charge (flushes the TLB first).  Allocates nothing per page. *)

val mapped_pages : t -> int

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

val max_read : int
(** 64 MiB: the longest checked bulk read, far beyond any simulated
    address-space region. *)

val read_into : t -> int -> bytes -> int -> int -> unit
(** [read_into t addr buf pos len] is the checked bulk read: [len] bytes
    from [addr] into [buf] at [\[pos, pos + len)].  Negative or absurd
    lengths (> [max_read], beyond any simulated region) fault, and a
    range outside [buf] raises [Invalid_argument], both before any
    translation, fault roll or byte lands — so attacker-fabricated length
    fields hit the MMU, not the host allocator.  One fault roll per call
    (none for [len = 0]); translates once per page crossed, not once per
    byte.  An armed
    recorder sees the same [Ev_read] as a {!read_bytes} of the range. *)

val read_bytes : t -> int -> int -> bytes
(** {!read_into} a fresh buffer, allocated only once the length is in
    range.  Nothing else holds the result ([Engine.read_string] hands it
    out as a string). *)

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

val owned_count : t -> int
(** Number of vpns currently charged against the frame quota (fresh
    mappings and COW copies).  When {!quota_tracked}, this must equal
    [Rlimit.frames_used] of the attached limits at every sync point. *)

val owned_vpns : t -> int list
(** The charged vpns, sorted.  Every one must be currently mapped. *)

val quota_tracked : t -> bool
(** Whether a frame quota is attached (bounded [limits] at creation). *)

val tlb_check : t -> string list
(** Validate every servable TLB entry (valid vpn, current epoch) against
    the page table: same frame, same protection and tag.  (An entry holds
    no bytes: every access resolves them through {!Physmem}.)  Returns one
    message per disagreement — any entry
    here is a revocation that failed to shoot down, i.e. a default-deny
    bypass.  Empty means consistent. *)

(** {2 Unchecked access (kernel use only)} *)

val write_bytes_kernel : t -> int -> bytes -> unit
(** Bypasses protection checks but still performs COW breaks, so kernel
    writes never corrupt shared pristine frames.  Atomic across pages,
    like {!write_bytes}. *)
