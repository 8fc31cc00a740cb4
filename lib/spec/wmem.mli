(** Instrumented flat memory for the SPEC-like workload kernels.

    Every load and store fires the {!Wedge_sim.Instr} hooks, so the same
    kernel runs natively, under the Pin model, or under full cb-log — the
    three bars of Figure 9.  Regions are carved out by a bump allocator
    that registers named segments for allocation-site attribution. *)

type t

val create : instr:Wedge_sim.Instr.t -> int -> t
(** [create ~instr bytes]: zeroed memory of the given size. *)

val alloc : t -> name:string -> int -> int
(** Carve a named region (8-byte aligned); returns its base offset. *)

val get8 : t -> int -> int
val set8 : t -> int -> int -> unit
val get32 : t -> int -> int
val set32 : t -> int -> int -> unit
val get64 : t -> int -> int
val set64 : t -> int -> int -> unit

val scope : t -> string -> (unit -> 'a) -> 'a
(** Function-entry/exit bracket (the kernel's "basic blocks"). *)
