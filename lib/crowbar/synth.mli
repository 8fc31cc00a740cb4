(** Profile synthesis: closing the Crowbar loop (§3.4, §7).

    The paper's workflow is cb-log → cb-analyze → programmer writes the
    policy.  This module automates the last step for whole compartments:
    run any workload with compartments under {!wrap_sthread}/{!wrap_gate}
    in {!Record} mode, and {!synthesize} aggregates the per-compartment
    cb-log traces (plus observed descriptor and callgate use) into a
    least-privilege {!Profile.t} — one [sthread]/[gate] entry per named
    compartment, each grant the minimum mode observed.

    A synthesized profile can then be {e installed}:

    - {!Complain} mode keeps the hand-written policy in force and only
      logs would-be violations of the profile — counted as
      ["policy.complain"] instants in the kernel trace and tallied in
      {!complaints} — mirroring AppArmor's complain mode;
    - {!Enforce} mode replaces the hand-written security contexts with
      ones built from the profile ({!sthread_sc}/{!gate_sc}) and installs
      per-compartment policy hooks: any access beyond the profile raises
      [Privilege_violation] with a deterministic message (no pids, no
      addresses) and the compartment dies contained.

    Profiles print and parse ({!Profile.print}/{!Profile.parse}) as a
    deterministic, diffable text format: same observations ⇒ byte-identical
    files. *)

module Profile : sig
  type entry_kind = Sthread | Gate

  type fd_mode = Fd_r | Fd_w | Fd_rw

  type entry = {
    e_kind : entry_kind;
    e_name : string;
    e_tags : (string * Wedge_kernel.Prot.grant) list;  (** tag name → mode *)
    e_fds : (string * fd_mode) list;  (** descriptor role → mode *)
    e_gates : string list;  (** callgates this compartment may invoke *)
    e_uid : int option;
    e_root : string option;
    e_context : string option;  (** SELinux SID *)
  }

  type t = {
    p_app : string;
    p_entries : entry list;
  }

  type parse_error = {
    pe_line : int;  (** 1-based *)
    pe_msg : string;
  }

  val print : t -> string
  (** Deterministic text rendering, in canonical order (entries by kind
      and name, grants within an entry by name): two profiles describing
      the same grants print identically.  Grammar (one directive per line,
      [#] comments):
      {v
      app "httpd"
      sthread "httpd.worker" {
        uid 33
        root "/www"
        tag "httpd.arg" rw
        fd "conn" rw
        gate "setup_session_key"
      }
      gate "setup_session_key" {
        tag "httpd.privkey" r
      }
      v}
      Tag modes are [r]/[rw]/[cow] (write-only is forbidden, §3.1);
      fd modes are [r]/[w]/[rw]. *)

  val parse : string -> (t, parse_error) result
  (** Inverse of {!print} up to that canonical order.  Rejects malformed directives
      and duplicate grants/entries with a positioned error. *)

  val equal : t -> t -> bool
  (** Equality up to the canonical order. *)
end

(** {1 Grant enumeration and tightening}

    Minimality is verified adversarially: for every grant in a synthesized
    profile, removing (or downgrading) just that grant must make the same
    workload fault — otherwise the grant was slack. *)

type grant_class =
  | Tag_read  (** an [r]/[cow] tag grant; tighten = drop it *)
  | Tag_write  (** an [rw] tag grant; tighten = downgrade to [r] *)
  | Fd_use  (** a descriptor grant; tighten = drop it *)
  | Gate_call  (** permission to invoke a callgate; tighten = drop it *)

type grant_ref = {
  gr_kind : Profile.entry_kind;
  gr_entry : string;
  gr_class : grant_class;
  gr_name : string;  (** tag name, fd role, or gate name *)
}

val grants : Profile.t -> grant_ref list
(** Every tightenable grant, in normalized order. *)

(** {1 Sessions} *)

type mode =
  | Record  (** observe with cb-log; hand-written policy stays in force *)
  | Complain of Profile.t  (** log would-be violations, allow them *)
  | Enforce of Profile.t  (** excess access ⇒ contained [Privilege_violation] *)

type t

val create : name:string -> mode -> t
(** A synthesis/verification session.  [name] becomes [p_app] of the
    synthesized profile. *)

(** {2 Server-side hooks}

    All take [t option] so servers thread an optional [?synth] parameter:
    [None] leaves the server untouched. *)

val sthread_sc :
  t option ->
  name:string ->
  tags:Wedge_mem.Tag.t list ->
  fds:(string * int) list ->
  Wedge_core.Wedge.ctx ->
  Wedge_core.Sc.t option
(** In {!Enforce} mode, the security context built from the profile's
    [sthread name] entry — the synthesized replacement for the server's
    hand-written policy; [None] otherwise (use the hand-written one).
    Tag names resolve against [tags] (this connection's fresh tags) first,
    then the app-wide live tags of [ctx]'s application; fd roles resolve
    against [fds].  Unresolvable grants are skipped: enforcement of what
    remains happens in the hooks. *)

val gate_sc :
  t option ->
  name:string ->
  tags:Wedge_mem.Tag.t list ->
  Wedge_core.Wedge.ctx ->
  Wedge_core.Sc.t option
(** Same for a callgate's [cgsc] from the profile's [gate name] entry. *)

val wrap_sthread :
  t option ->
  name:string ->
  fds:(string * int) list ->
  (Wedge_core.Wedge.ctx -> int -> int) ->
  Wedge_core.Wedge.ctx ->
  int ->
  int
(** Wrap a compartment body.  {!Record}: attach a fresh cb-log, observe
    descriptor/callgate use, and fold the trace into the session at exit.
    {!Complain}/{!Enforce}: install the per-ctx policy hooks for entry
    [name].  [fds] names this compartment's descriptors (role → fd).
    [None] session: the body runs unchanged. *)

val wrap_gate :
  t option ->
  name:string ->
  (Wedge_core.Wedge.ctx -> trusted:int -> arg:int -> int) ->
  Wedge_core.Wedge.ctx ->
  trusted:int ->
  arg:int ->
  int
(** Same for a callgate entry function (no descriptors, no identity). *)

(** {2 Results} *)

val synthesize : t -> Profile.t
(** The least-privilege profile implied by everything observed so far.
    Deterministic: two runs of the same seeded workload synthesize equal
    profiles ({!Profile.print} then renders them byte-identically). *)

val complaints : t -> (string * int) list
(** Complain-mode would-be violations, sorted by message. *)

val denials : t -> (string * int) list
(** Enforce-mode denials, sorted by message. *)

val diff : installed:Profile.t -> observed:Profile.t -> string list
(** The differ: every observed grant not subsumed by the installed
    profile, as sorted human-readable lines; [[]] when
    installed ⊇ observed. *)

val self_check : t -> unit -> string option
(** Oracle invariant for {!Enforce} sessions: [None] while no access was
    denied and the installed profile subsumes everything observed;
    [Some reason] otherwise.  Always [None] in other modes — feed to
    [Oracle.add_invariant]. *)

module For_testing : sig
  val normalize : Profile.t -> Profile.t
  (** The canonical order {!Profile.print} and {!Profile.equal} put a
      profile in. *)

  val find : Profile.t -> Profile.entry_kind -> string -> Profile.entry option
  (** The entry of this kind and name, as the loader looks it up. *)
end
