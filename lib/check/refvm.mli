(** Differential checking of the memory subsystem.

    A naive flat reference model of {!Wedge_kernel.Vm} — no TLB, no COW
    tricks, no quota coupling — consumes a kernel's {!Wedge_kernel.Vm.mem_event}
    stream in lockstep and recomputes what every access should have
    observed.  Any disagreement (different bytes, a success where the
    model faults, an unjustifiable fault) raises {!Mismatch}. *)

exception Mismatch of string

type t

val create : Wedge_kernel.Kernel.t -> t

val arm : t -> unit
(** Prime the model from page-table and frame ground truth, then install
    it as the kernel's memory-event recorder: from here every access is
    checked in lockstep.
    @raise Invalid_argument if already armed. *)

val disarm : t -> unit
(** Remove the recorder; idempotent. *)

val verify : t -> unit
(** End-of-run sweep: every live process's page table must agree with
    the model — same mappings, frames, protections, byte-identical
    content.
    @raise Mismatch on divergence. *)

val events : t -> int
(** Events consumed so far. *)
