type t = { mutable state : int }

let create ~seed = { state = seed lxor 0x1e3779b97f4a7c15 }

(* splitmix64, truncated to OCaml's 63-bit ints. *)
let next64 t =
  t.state <- (t.state + 0x1e3779b97f4a7c15) land max_int;
  let z = t.state in
  let z = (z lxor (z lsr 30)) * 0x3f58476d1ce4e5b9 land max_int in
  let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb land max_int in
  z lxor (z lsr 31)

let byte t = next64 t land 0xff

let bytes t n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set b i (Char.chr (byte t))
  done;
  b

let int_below t n =
  if n <= 0 then invalid_arg "Drbg.int_below";
  next64 t mod n
