(* Splitmix64: the same generator family Fault_plan uses, packaged as a
   standalone stream so schedulers, explorers and tests can share one
   seeded, replayable randomness source without dragging in a plan. *)

type t = { mutable s : int64 }

let golden = 0x9E3779B97F4A7C15L

let mix64 z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { s = Int64.of_int seed }

let next64 t =
  t.s <- Int64.add t.s golden;
  mix64 t.s

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next64 t) 1) (Int64.of_int n))

let float t =
  (* 53 uniform bits, as a float in [0,1). *)
  Int64.to_float (Int64.shift_right_logical (next64 t) 11) /. 9007199254740992.0

let derive ~seed i =
  (* A child seed for stream [i] of run [seed]: one finalizer application,
     so neighbouring i values land in unrelated parts of the state space.
     Non-negative so it survives a round trip through command lines. *)
  Int64.to_int
    (Int64.shift_right_logical
       (mix64 (Int64.add (Int64.of_int seed) (Int64.mul golden (Int64.of_int (i + 1)))))
       2)
