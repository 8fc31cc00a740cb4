(* Little-endian arrays of 26-bit limbs, normalised (no trailing zero
   limbs).  26-bit limbs keep products within OCaml's 63-bit ints. *)

let limb_bits = 26
let base = 1 lsl limb_bits
let mask = base - 1

type t = int array

let zero : t = [||]
let is_zero (a : t) = Array.length a = 0

let normalize (a : int array) =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int n =
  if n < 0 then invalid_arg "Bignum.of_int: negative";
  let rec go n acc = if n = 0 then acc else go (n lsr limb_bits) ((n land mask) :: acc) in
  normalize (Array.of_list (List.rev (go n [])))

let one = of_int 1
let two = of_int 2

let to_int (a : t) =
  let n = Array.length a in
  if n * limb_bits > 62 && n > 0 && a.(n - 1) lsl ((n - 1) * limb_bits) < 0 then
    failwith "Bignum.to_int: too large";
  let v = ref 0 in
  for i = n - 1 downto 0 do
    if !v > max_int lsr limb_bits then failwith "Bignum.to_int: too large";
    v := (!v lsl limb_bits) lor a.(i)
  done;
  !v

(* [cmp_limbs a b lo hi] compares limbs [lo..hi] of [a] and [b]. *)
let cmp_limbs (a : int array) (b : int array) lo hi =
  let i = ref hi in
  while !i >= lo && a.(!i) = b.(!i) do
    decr i
  done;
  if !i < lo then 0 else if a.(!i) > b.(!i) then 1 else -1

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb else cmp_limbs a b 0 (la - 1)

let equal a b = compare a b = 0

let num_bits (a : t) =
  let n = Array.length a in
  if n = 0 then 0
  else
    let top = a.(n - 1) in
    let rec width v acc = if v = 0 then acc else width (v lsr 1) (acc + 1) in
    ((n - 1) * limb_bits) + width top 0

let is_even (a : t) = Array.length a = 0 || a.(0) land 1 = 0
let bit (a : t) i =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb + 1 in
  let r = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land mask;
    carry := s lsr limb_bits
  done;
  normalize r

let sub (a : t) (b : t) : t =
  if compare a b < 0 then invalid_arg "Bignum.sub: negative result";
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  normalize r

let mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let v = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- v land mask;
        carry := v lsr limb_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let v = r.(!k) + !carry in
        r.(!k) <- v land mask;
        carry := v lsr limb_bits;
        incr k
      done
    done;
    normalize r
  end

let shift_left (a : t) bits : t =
  if is_zero a || bits = 0 then if bits = 0 then a else a
  else begin
    let limbs = bits / limb_bits and off = bits mod limb_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl off in
      r.(i + limbs) <- r.(i + limbs) lor (v land mask);
      r.(i + limbs + 1) <- r.(i + limbs + 1) lor (v lsr limb_bits)
    done;
    normalize r
  end

let shift_right (a : t) bits : t =
  if bits = 0 then a
  else begin
    let limbs = bits / limb_bits and off = bits mod limb_bits in
    let la = Array.length a in
    if limbs >= la then zero
    else begin
      let n = la - limbs in
      let r = Array.make n 0 in
      for i = 0 to n - 1 do
        let lo = a.(i + limbs) lsr off in
        let hi = if i + limbs + 1 < la then (a.(i + limbs + 1) lsl (limb_bits - off)) land mask else 0 in
        r.(i) <- if off = 0 then a.(i + limbs) else lo lor hi
      done;
      normalize r
    end
  end

(* [a := a - b] over limbs [lo..hi], dropping the final borrow. *)
let sub_in_place (a : int array) (b : int array) lo hi =
  let borrow = ref 0 in
  for i = lo to hi do
    let d = a.(i) - b.(i) - !borrow in
    a.(i) <- d land mask;
    borrow := if d < 0 then 1 else 0
  done

(* OR [v] (at most [limb_bits] bits) into [r] at bit [pos]. *)
let put (r : int array) pos v =
  let i = pos / limb_bits and v = v lsl (pos mod limb_bits) in
  r.(i) <- r.(i) lor (v land mask);
  if v lsr limb_bits <> 0 then r.(i + 1) <- r.(i + 1) lor (v lsr limb_bits)

(* The [w] (at most [limb_bits]) bits of [a] from bit [pos]. *)
let get (a : t) pos w =
  let i = pos / limb_bits and off = pos mod limb_bits in
  let la = Array.length a in
  let lo = if i < la then a.(i) lsr off else 0 in
  let hi = if i + 1 < la then a.(i + 1) lsl (limb_bits - off) else 0 in
  (lo lor hi) land ((1 lsl w) - 1)

(* Binary long division in place: one remainder, one quotient and one
   divisor that shifts right a bit per quotient bit.  At bit [i] the
   divisor b * 2^i spans limbs [lo..hi] and the remainder, below twice
   that, fits in them too, so each step touches only those limbs. *)
let divmod (a : t) (b : t) =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else begin
    let la = Array.length a and nb = num_bits b in
    let shift = num_bits a - nb in
    let q = Array.make ((shift / limb_bits) + 1) 0 in
    let r = Array.copy a in
    let d = Array.make la 0 in
    Array.iteri (fun j l -> put d ((j * limb_bits) + shift) l) b;
    for i = shift downto 0 do
      let lo = i / limb_bits and hi = min (la - 1) ((i + nb) / limb_bits) in
      if cmp_limbs r d lo hi >= 0 then begin
        sub_in_place r d lo hi;
        q.(lo) <- q.(lo) lor (1 lsl (i mod limb_bits))
      end;
      for j = max 0 (lo - 1) to hi do
        let top = if j < hi then (d.(j + 1) land 1) lsl (limb_bits - 1) else 0 in
        d.(j) <- (d.(j) lsr 1) lor top
      done
    done;
    (normalize q, normalize r)
  end

let rem a b = snd (divmod a b)

(* Montgomery multiplication (CIOS) modulo an odd [m] of [k] limbs, with
   R = base^k and [m' = -m^-1 mod base]: [r := a*b/R mod m] for [a], [b]
   below [m].  [t] is a work buffer of [k + 2] limbs; [r] may alias [a] or
   [b]. *)
let mont_mul (m : int array) m' (t : int array) (a : int array) (b : int array) (r : int array) =
  let k = Array.length m in
  Array.fill t 0 (k + 2) 0;
  for i = 0 to k - 1 do
    let bi = b.(i) in
    let c = ref 0 in
    for j = 0 to k - 1 do
      let v = t.(j) + (a.(j) * bi) + !c in
      t.(j) <- v land mask;
      c := v lsr limb_bits
    done;
    let v = t.(k) + !c in
    t.(k) <- v land mask;
    t.(k + 1) <- v lsr limb_bits;
    let u = (t.(0) * m') land mask in
    let c = ref ((t.(0) + (u * m.(0))) lsr limb_bits) in
    for j = 1 to k - 1 do
      let v = t.(j) + (u * m.(j)) + !c in
      t.(j - 1) <- v land mask;
      c := v lsr limb_bits
    done;
    let v = t.(k) + !c in
    t.(k - 1) <- v land mask;
    t.(k) <- t.(k + 1) + (v lsr limb_bits)
  done;
  if t.(k) <> 0 || cmp_limbs t m 0 (k - 1) >= 0 then sub_in_place t m 0 (k - 1);
  Array.blit t 0 r 0 k

(* Left-to-right square-and-multiply in Montgomery form.  The k-limb
   buffers are allocated once per call; R^2 mod m comes from doubling
   2^(bits m - 1) in place. *)
let modexp_odd (a : t) ~exp (m : t) =
  let k = Array.length m in
  let m' =
    (* Newton's iteration doubles the correct low bits of m0^-1: 3, 6, ... 48. *)
    let inv = ref m.(0) in
    for _ = 1 to 4 do
      inv := !inv * (2 - (m.(0) * !inv)) land mask
    done;
    (base - !inv) land mask
  in
  let t = Array.make (k + 2) 0 in
  let r2 = Array.make k 0 in
  let top = num_bits m - 1 in
  put r2 top 1;
  for _ = top + 1 to 2 * k * limb_bits do
    let c = ref 0 in
    for j = 0 to k - 1 do
      let v = (r2.(j) lsl 1) lor !c in
      r2.(j) <- v land mask;
      c := v lsr limb_bits
    done;
    if !c <> 0 || cmp_limbs r2 m 0 (k - 1) >= 0 then sub_in_place r2 m 0 (k - 1)
  done;
  let b = Array.make k 0 in
  let a = rem a m in
  Array.blit a 0 b 0 (Array.length a);
  mont_mul m m' t b r2 b;
  let x = Array.copy b in
  for i = num_bits exp - 2 downto 0 do
    mont_mul m m' t x x x;
    if bit exp i then mont_mul m m' t x b x
  done;
  Array.fill b 0 k 0;
  b.(0) <- 1;
  mont_mul m m' t x b x;
  normalize x

let modexp ~base:b ~exp ~m =
  if is_zero m then raise Division_by_zero;
  if equal m one then zero
  else if is_zero exp then one
  else if not (is_even m) then modexp_odd b ~exp m
  else begin
    let result = ref one in
    let b = ref (rem b m) in
    let nbits = num_bits exp in
    for i = 0 to nbits - 1 do
      if bit exp i then result := rem (mul !result !b) m;
      if i < nbits - 1 then b := rem (mul !b !b) m
    done;
    !result
  end

let gcd a b =
  let rec go a b = if is_zero b then a else go b (rem a b) in
  if compare a b >= 0 then go a b else go b a

(* Extended Euclid over signed pairs represented as (sign, magnitude). *)
let modinv a ~m =
  let a = rem a m in
  if is_zero a then raise Not_found;
  (* Invariants: r0 = s0*a mod m, r1 = s1*a mod m with signed s. *)
  let rec go r0 s0_sign s0 r1 s1_sign s1 =
    if is_zero r1 then
      if equal r0 one then if s0_sign then sub m (rem s0 m) else rem s0 m
      else raise Not_found
    else begin
      let q, r2 = divmod r0 r1 in
      (* s2 = s0 - q*s1 (signed) *)
      let qs1 = mul q s1 in
      let s2_sign, s2 =
        if s0_sign = s1_sign then
          if compare s0 qs1 >= 0 then (s0_sign, sub s0 qs1) else (not s0_sign, sub qs1 s0)
        else (s0_sign, add s0 qs1)
      in
      go r1 s1_sign s1 r2 s2_sign s2
    end
  in
  go m false zero a false one

let of_bytes_be b =
  let n = Bytes.length b in
  let r = Array.make (((8 * n) + limb_bits - 1) / limb_bits) 0 in
  for i = 0 to n - 1 do
    put r (8 * i) (Char.code (Bytes.get b (n - 1 - i)))
  done;
  normalize r

let to_bytes_be ?len (a : t) =
  let nbytes = (num_bits a + 7) / 8 in
  let nbytes = max nbytes 1 in
  let out_len = match len with Some l -> l | None -> nbytes in
  if nbytes > out_len then invalid_arg "Bignum.to_bytes_be: value too large for len";
  let b = Bytes.make out_len '\000' in
  for i = 0 to nbytes - 1 do
    Bytes.set b (out_len - 1 - i) (Char.chr (get a (8 * i) 8))
  done;
  b

let of_hex s =
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | '_' | ' ' -> -1
    | _ -> invalid_arg "Bignum.of_hex"
  in
  let ndigits = String.fold_left (fun n c -> if digit c >= 0 then n + 1 else n) 0 s in
  let r = Array.make (((4 * ndigits) + limb_bits - 1) / limb_bits) 0 in
  let pos = ref 0 in
  for i = String.length s - 1 downto 0 do
    let d = digit s.[i] in
    if d >= 0 then begin
      put r !pos d;
      pos := !pos + 4
    end
  done;
  normalize r

let to_hex (a : t) =
  if is_zero a then "0"
  else
    let n = (num_bits a + 3) / 4 in
    String.init n (fun i -> "0123456789abcdef".[get a (4 * (n - 1 - i)) 4])

let random_bits rng ~bits =
  if bits <= 0 then invalid_arg "Bignum.random_bits";
  let nbytes = (bits + 7) / 8 in
  let b = Drbg.bytes rng nbytes in
  (* Clear excess top bits, then force the top bit on. *)
  let excess = (nbytes * 8) - bits in
  let top = Char.code (Bytes.get b 0) land (0xff lsr excess) in
  Bytes.set b 0 (Char.chr (top lor (1 lsl (7 - excess))));
  of_bytes_be b

let random_below rng n =
  if is_zero n then invalid_arg "Bignum.random_below: zero bound";
  let bits = num_bits n in
  let rec try_ () =
    let nbytes = (bits + 7) / 8 in
    let b = Drbg.bytes rng nbytes in
    let excess = (nbytes * 8) - bits in
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) land (0xff lsr excess)));
    let v = of_bytes_be b in
    if compare v n < 0 then v else try_ ()
  in
  try_ ()
