(** The attacker model, made executable.

    The paper's attacker "exploits" a compartment — injected code runs with
    that compartment's privileges.  Here a payload is an OCaml function
    that {!Wedge_core.Wedge.takeover} runs with the compromised
    compartment's capability handle ({!Wedge_core.Wedge.ctx}); these
    helpers probe what the payload can actually reach, and collect loot
    for the test assertions. *)

type loot

val loot_create : unit -> loot
val grab : loot -> label:string -> string -> unit
val stolen : loot -> label:string -> string option
val count : loot -> int
val labels : loot -> string list

val try_read : Wedge_core.Wedge.ctx -> addr:int -> len:int -> (string, string) result
(** Attempt a read with the compartment's privileges; [Error reason] if the
    MMU stops it. *)

val steal_tag :
  Wedge_core.Wedge.ctx -> loot -> label:string -> Wedge_mem.Tag.t -> bool
(** Dump a whole tag segment into the loot if readable; [false] when the
    compartment is (correctly) denied. *)
