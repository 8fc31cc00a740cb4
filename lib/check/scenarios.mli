(** Checkable chaos scenarios for schedule exploration.

    Each scenario builds a fresh simulated world, runs a melee of
    Byzantine clients (optionally under an armed fault plan) with the
    invariant {!Oracle} wired to every system call and a sampled stream
    of context switches, then finishes with a full oracle sweep and —
    when [diff] — a {!Refvm} lockstep check plus end-of-run verify.

    A run returns a deterministic summary string (same seed + policy ⇒
    byte-identical summary); failures are exceptions
    ({!Oracle.Violation}, {!Refvm.Mismatch}, a scenario's end-state
    assertion, a compartment that died of a class outside
    {!Wedge_core.Engine.fault_reason}) which {!Explore} catches and
    shrinks.

    The [*_storm] and [*_pool_storm] scenarios drive the self-healing
    machinery: on top of channel/memory faults they induce {e hangs}
    (["fiber.stall"] and ["cgate.call"] fault sites) against a server
    running its production serve path (a faulted compartment ends its
    connection; booted in [*_storm], stamped from its frozen image in
    [*_pool_storm])
    behind a guard with a hang deadline.  They assert that every hung
    compartment is cut within its heartbeat deadline (oracle
    invariant), the listener survives, clean probes stop degrading once
    the storm passes (two in a row leave the server's
    [<server>.degraded] counter unchanged), and the oracle sweeps clean
    — no leaked frame or descriptor across any fault or cut.

    The ["racy"] scenario is the deliberately buggy control: a lost
    update that only manifests under schedules that interleave a
    yielding read-modify-write — the sanity check that exploration
    actually catches schedule-dependent bugs. *)

type t = {
  s_name : string;
  s_doc : string;
  s_run :
    policy:Wedge_sim.Fiber.policy -> diff:bool -> faults:bool -> seed:int -> string;
}

val find : string -> t option
val names : unit -> string list

(** {1 Profile synthesis entry points}

    The ["httpd_synth"/"pop3_synth"/"sshd_synth"] scenarios close the
    Crowbar loop: record a seeded workload under {!Wedge_crowbar.Cb_log},
    synthesize a least-privilege profile per compartment, then re-run the
    same workload with the profile {e enforced} and explore schedules.
    These helpers expose the same record/re-run pipeline to
    [wedge_cli synth] and the tests. *)

val synth_apps : string list
(** Apps with a synthesis workload: [["httpd"; "pop3"; "sshd"]]. *)

val synth_record : app:string -> seed:int -> Wedge_crowbar.Synth.Profile.t
(** Run [app]'s seeded workload in record mode under the deterministic
    round-robin schedule in a fresh world and synthesize its profile.
    Raises [Failure] if the clean workload itself fails, and
    [Invalid_argument] for an unknown [app]. *)

val synth_rerun :
  app:string ->
  seed:int ->
  Wedge_crowbar.Synth.mode ->
  bool * string * Wedge_crowbar.Synth.t
(** Re-run the same deterministic workload with [mode] installed
    (typically [Complain p] or [Enforce p]); returns
    [(workload_succeeded, summary, session)] — query the session for
    {!Wedge_crowbar.Synth.denials} / {!Wedge_crowbar.Synth.complaints}. *)
