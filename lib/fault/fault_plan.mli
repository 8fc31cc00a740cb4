(** Deterministic fault injection plans.

    A plan is a seeded PRNG plus per-site rules.  Hook sites scattered
    through the stack ({!Wedge_kernel.Physmem.alloc}, [Vm] checked access,
    [Chan] reads/writes/connects, the fiber scheduler) call {!roll_opt}
    with a site name; the plan decides — deterministically, from the seed and the
    per-site operation count — whether a fault fires and which kind.

    Two runs with the same seed, rules and (deterministic) operation
    sequence produce byte-identical {!trace} output, so any chaos-test
    failure can be replayed exactly. *)

type kind =
  | Enomem          (** frame allocation fails (simulated ENOMEM) *)
  | Prot_fault      (** spurious protection fault on a checked access *)
  | Drop            (** bytes vanish; the channel direction is torn down *)
  | Truncate        (** one byte gets through, then the direction dies *)
  | Delay of int    (** simulated nanoseconds charged to the clock *)
  | Reset           (** peer reset: both channel directions torn down *)
  | Crash           (** the running fiber/compartment dies mid-operation *)

exception Injected of string
(** The catchable fault all channel/fiber injections surface as; the engine
    turns it into compartment termination, like a signal. *)

val kind_to_string : kind -> string

type t

val create : ?seed:int -> unit -> t
(** A fresh plan (armed, no rules).  Default seed 1. *)

val seed : t -> int

val rule : t -> site:string -> ?prob:float -> ?nth:int -> kind list -> unit
(** [rule t ~site ~prob kinds] makes each armed operation at [site] fail
    with probability [prob], choosing uniformly among [kinds].  [nth]
    additionally forces a failure on exactly the [nth] armed operation
    (1-based) — the deterministic "fail the Nth alloc" form.  Replaces any
    previous rule for the site. *)

val arm : t -> unit
val disarm : t -> unit
(** Disarmed plans never fire and do not advance op counters, so setup
    work (server install, tag creation) can be excluded from the plan
    deterministically. *)

val armed : t -> bool

val roll_opt : t option -> site:string -> kind option
(** Called by hook sites on every operation, with the [t option] they
    store ([None] never fires): advances the site's op counter and
    returns the fault to inject, if any.  Records fired injections in
    the trace. *)

val fail : site:string -> kind -> 'a
(** Raise {!Injected} describing the fault. *)

val site_op_counts : t -> (string * int) list
(** All sites with a rule and their op counts, sorted by site name — what
    a metrics registry exports. *)

val injections : t -> int
(** Total faults fired. *)

val trace : t -> string
(** One line per injection: ["#<n> <site> op=<count> <kind>\n"].
    Byte-identical across same-seed runs. *)

val next64 : t -> int64
(** Draw from the plan's PRNG (advances deterministic state). *)
