(** The sthread emulation library (§3.4): run a compartment body with
    access to {e all} memory so that protection violations do not terminate
    it, while logging every access the declared policy would have denied.
    Used with cb-log after refactoring: one run reveals the complete set of
    missing grants instead of crashing on the first. *)

type violation = {
  v_addr : int;
  v_len : int;
  v_mode : Wedge_sim.Instr.kind;
  v_tag : Wedge_mem.Tag.t option;  (** the tag owning the address, if any *)
}

val run :
  Wedge_core.Wedge.ctx ->
  Wedge_core.Sc.t ->
  (Wedge_core.Wedge.ctx -> int -> int) ->
  int ->
  int * violation list
(** [run parent sc body arg] executes [body] as a pthread of [parent]
    (full access, §4.2: emulated sthreads are standard pthreads), checking
    each access against what [sc] would have allowed and collecting the
    would-be violations. *)

val missing_grants : Wedge_core.Wedge.app -> violation list -> (Wedge_mem.Tag.t * Wedge_kernel.Prot.grant) list
(** Summarise violations into the tag grants the policy lacks. *)

val pp_violations : Format.formatter -> violation list -> unit
