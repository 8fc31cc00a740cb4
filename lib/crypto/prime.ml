module B = Bignum

let small_primes =
  let sieve = Array.make 1000 true in
  sieve.(0) <- false;
  sieve.(1) <- false;
  for i = 2 to 999 do
    if sieve.(i) then begin
      let j = ref (i * i) in
      while !j < 1000 do
        sieve.(!j) <- false;
        j := !j + i
      done
    end
  done;
  List.filter (fun i -> sieve.(i)) (List.init 1000 (fun i -> i))

let trial_division n =
  (* Returns [Some true] for a definite small prime, [Some false] for a
     definite composite, [None] for "needs Miller-Rabin". *)
  let rec go = function
    | [] -> None
    | p :: rest ->
        let bp = B.of_int p in
        if B.compare n bp = 0 then Some true
        else if B.is_zero (B.rem n bp) then Some false
        else go rest
  in
  go small_primes

(* Miller–Rabin witnesses tried per candidate. *)
let rounds = 20

let miller_rabin rng n =
  (* n odd, > 3.  Write n-1 = d * 2^s. *)
  let n1 = B.sub n B.one in
  let rec split d s = if B.is_even d then split (B.shift_right d 1) (s + 1) else (d, s) in
  let d, s = split n1 0 in
  let witness a =
    let x = B.modexp ~base:a ~exp:d ~m:n in
    if B.equal x B.one || B.equal x n1 then false
    else begin
      let rec loop x i =
        if i >= s - 1 then true
        else
          let x = B.rem (B.mul x x) n in
          if B.equal x n1 then false else loop x (i + 1)
      in
      loop x 0
    end
  in
  let rec rounds_loop i =
    if i >= rounds then true
    else
      let a = B.add B.two (B.random_below rng (B.sub n (B.of_int 4))) in
      if witness a then false else rounds_loop (i + 1)
  in
  rounds_loop 0

let is_prime rng n =
  if B.compare n B.two < 0 then false
  else if B.equal n B.two then true
  else if B.is_even n then false
  else match trial_division n with Some r -> r | None -> miller_rabin rng n

(* About one odd [bits]-bit number in [bits * ln 2 / 2] is prime, so a
   working test finds one among [100 * bits] candidates except with
   probability below e^-288: a search that does not has a broken test
   (or broken arithmetic under it) and fails rather than loop forever. *)
let gen_prime rng ~bits =
  if bits < 3 then invalid_arg "Prime.gen_prime: bits < 3";
  let rec go tries =
    if tries = 100 * bits then failwith "Prime.gen_prime: no prime found";
    let c = B.random_bits rng ~bits in
    (* Force odd. *)
    let c = if B.is_even c then B.add c B.one else c in
    if B.num_bits c = bits && is_prime rng c then c else go (tries + 1)
  in
  go 0
