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

(* Bits in one limb, up to its top set bit. *)
let width v =
  let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let num_bits (a : t) =
  let n = Array.length a in
  if n = 0 then 0 else ((n - 1) * limb_bits) + width a.(n - 1)

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

(* Limb [i] of [a * 2^s], for [0 <= s < limb_bits]: the low bits come
   from limb [i - 1] (zero below limb 0). *)
let shifted (a : int array) i s =
  let lo = if i = 0 then 0 else a.(i - 1) lsr (limb_bits - s) in
  ((a.(i) lsl s) lor lo) land mask

(* Knuth's algorithm D, one limb of quotient per step: divide the [nu]
   limbs of [u] by the [nv] limbs of [v] ([nu >= nv], top limb of [v]
   non-zero) in place.  [u.(nu)] must exist and be zero.  The remainder
   is left in [u.(0 .. nv - 1)] with zeros above it, and quotient digit
   [j] goes to [q.(j)] unless [q] is empty.  Each digit is estimated from
   the top limbs of [u] and [v] read as if both were shifted left until
   [v]'s top bit is set ([shifted]), which keeps the estimate at most one
   too high once the third limb has checked it; the arrays themselves
   are never shifted. *)
let div_limbs (u : int array) nu (v : int array) nv (q : int array) =
  let store = Array.length q > 0 in
  if nv = 1 then begin
    let d = v.(0) and r = ref 0 in
    for j = nu - 1 downto 0 do
      let cur = (!r lsl limb_bits) lor u.(j) in
      if store then q.(j) <- cur / d;
      r := cur mod d;
      u.(j) <- 0
    done;
    u.(0) <- !r
  end
  else begin
    let s = limb_bits - width v.(nv - 1) in
    let v1 = shifted v (nv - 1) s and v2 = shifted v (nv - 2) s in
    for j = nu - nv downto 0 do
      let num = (shifted u (j + nv) s lsl limb_bits) lor shifted u (j + nv - 1) s in
      let u2 = shifted u (j + nv - 2) s in
      let qhat = ref (num / v1) and rhat = ref (num mod v1) in
      while !rhat < base && (!qhat >= base || !qhat * v2 > (!rhat lsl limb_bits) lor u2) do
        decr qhat;
        rhat := !rhat + v1
      done;
      (* u[j .. j + nv] -= qhat * v, the borrow carried signed *)
      let c = ref 0 in
      for i = 0 to nv - 1 do
        let p = !qhat * v.(i) in
        let t = u.(j + i) + !c - (p land mask) in
        u.(j + i) <- t land mask;
        c := (t asr limb_bits) - (p lsr limb_bits)
      done;
      let t = u.(j + nv) + !c in
      u.(j + nv) <- t land mask;
      if t < 0 then begin
        (* qhat was one too high: add v back *)
        decr qhat;
        let c = ref 0 in
        for i = 0 to nv - 1 do
          let t = u.(j + i) + v.(i) + !c in
          u.(j + i) <- t land mask;
          c := t lsr limb_bits
        done;
        u.(j + nv) <- (u.(j + nv) + !c) land mask
      end;
      if store then q.(j) <- !qhat
    done
  end

(* A working copy of [a], one limb longer, for [div_limbs]. *)
let dividend (a : t) =
  let u = Array.make (Array.length a + 1) 0 in
  Array.blit a 0 u 0 (Array.length a);
  u

(* The first [n] limbs of [u], normalised, as a fresh array. *)
let prefix (u : int array) n =
  let n = ref n in
  while !n > 0 && u.(!n - 1) = 0 do
    decr n
  done;
  Array.sub u 0 !n

let divmod (a : t) (b : t) =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else begin
    let la = Array.length a and lb = Array.length b in
    let u = dividend a and q = Array.make (la - lb + 1) 0 in
    div_limbs u la b lb q;
    (normalize q, prefix u lb)
  end

let rem (a : t) (b : t) =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then a
  else begin
    let u = dividend a in
    div_limbs u (Array.length a) b (Array.length b) [||];
    prefix u (Array.length b)
  end

(* The widest modulus [mont_mul] takes: its columns stay below 2^62. *)
let max_mont_limbs = 511

(* Montgomery multiplication modulo an odd [m] of [k] limbs, with
   R = base^k and [m' = -m^-1 mod base]: the [k] limbs of [r] from [ro]
   become [a * b / R mod m], where [a] (below R) and [b] (below [m]) are
   the [k] limbs of their arrays from [ao] and [bo].  [t] is a work
   buffer of at least [2k] limbs; [r] may overlap [a] or [b].

   Column [i + j] of [t] collects a_j * b_i + u_i * m_j unreduced: row
   [i] picks [u_i] to clear column [i]'s low limb, then moves that
   column's carry up, and one pass after the last row carries columns
   k .. 2k-1 down into the result.  A column takes at most 2k products
   below 2^52 plus a carry below 2^37, below 2^62 while k <=
   [max_mont_limbs].  The one check at entry bounds every index the
   loops touch, so they read and write unchecked. *)
let mont_mul (m : int array) m' (t : int array) (a : int array) ao (b : int array) bo
    (r : int array) ro =
  let k = Array.length m in
  if
    k > max_mont_limbs
    || Array.length t < 2 * k
    || ao < 0 || bo < 0 || ro < 0
    || ao > Array.length a - k
    || bo > Array.length b - k
    || ro > Array.length r - k
  then invalid_arg "Bignum.mont_mul";
  Array.fill t 0 (2 * k) 0;
  let a0 = a.(ao) in
  for i = 0 to k - 1 do
    let bi = Array.unsafe_get b (bo + i) in
    let u = ((Array.unsafe_get t i + (a0 * bi)) * m') land mask in
    (* column c = i + j gains a_j * b_i + u * m_j *)
    let d = ao - i in
    for c = i to i + k - 1 do
      Array.unsafe_set t c
        (Array.unsafe_get t c
        + (Array.unsafe_get a (d + c) * bi)
        + (u * Array.unsafe_get m (c - i)))
    done;
    let carry = Array.unsafe_get t i lsr limb_bits in
    Array.unsafe_set t (i + 1) (Array.unsafe_get t (i + 1) + carry)
  done;
  let c = ref 0 in
  for j = 0 to k - 1 do
    let v = Array.unsafe_get t (k + j) + !c in
    Array.unsafe_set t j (v land mask);
    c := v lsr limb_bits
  done;
  if !c <> 0 || cmp_limbs t m 0 (k - 1) >= 0 then sub_in_place t m 0 (k - 1);
  Array.blit t 0 r ro k

(* Left-to-right sliding-window exponentiation in Montgomery form, with
   one work buffer per call: [wl] limbs for divisions and [mont_mul]'s
   accumulator, then the table of odd powers b, b^3, ...,
   b^(2^window - 1), [k] limbs each.  Exponents longer than 64 bits take
   4-bit windows; shorter ones, such as e = 65537, take 1-bit windows,
   which is the binary ladder with a table of b alone, since a wider
   table would cost more host words than the multiplications it saves.
   R^2 mod m is one division of base^(2k) by [m]. *)
let modexp_odd (a : t) ~exp (m : t) =
  let k = Array.length m and la = Array.length a and nbits = num_bits exp in
  let m' =
    (* Newton's iteration doubles the correct low bits of m0^-1: 3, 6, ... 48. *)
    let inv = ref m.(0) in
    for _ = 1 to 4 do
      inv := !inv * (2 - (m.(0) * !inv)) land mask
    done;
    (base - !inv) land mask
  in
  let window = if nbits > 64 then 4 else 1 in
  let entries = 1 lsl (window - 1) in
  let wl = max ((2 * k) + 2) (la + 1) in
  let w = Array.make (wl + (entries * k)) 0 in
  let x = Array.make k 0 in
  w.(2 * k) <- 1;
  div_limbs w ((2 * k) + 1) m k [||];
  Array.blit w 0 x 0 k;
  (* b = a mod m, then b * R mod m, at table entry 0 *)
  if compare a m >= 0 then begin
    Array.blit a 0 w 0 la;
    div_limbs w la m k [||];
    Array.blit w 0 w wl k
  end
  else Array.blit a 0 w wl la;
  mont_mul m m' w w wl x 0 w wl;
  if entries > 1 then begin
    mont_mul m m' w w wl w wl x 0;
    for e = 1 to entries - 1 do
      mont_mul m m' w w (wl + ((e - 1) * k)) x 0 w (wl + (e * k))
    done
  end;
  (* Each window is the longest run of at most [window] bits that starts
     and ends with a set bit; zeros between windows square. *)
  let i = ref (nbits - 1) in
  while !i >= 0 do
    if not (bit exp !i) then begin
      mont_mul m m' w x 0 x 0 x 0;
      decr i
    end
    else begin
      let l = ref (max 0 (!i - window + 1)) in
      while not (bit exp !l) do
        incr l
      done;
      let e = get exp !l (!i - !l + 1) lsr 1 in
      if !i = nbits - 1 then Array.blit w (wl + (e * k)) x 0 k
      else begin
        for _ = !l to !i do
          mont_mul m m' w x 0 x 0 x 0
        done;
        mont_mul m m' w x 0 w (wl + (e * k)) x 0
      end;
      i := !l - 1
    end
  done;
  Array.fill w wl k 0;
  w.(wl) <- 1;
  mont_mul m m' w x 0 w wl x 0;
  normalize x

let modexp ~base:b ~exp ~m =
  if is_zero m then raise Division_by_zero;
  if equal m one then zero
  else if is_zero exp then one
  else if not (is_even m) && Array.length m <= max_mont_limbs then modexp_odd b ~exp m
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

let of_hex_sub s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Bignum.of_hex_sub";
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | '_' | ' ' -> -1
    | _ -> invalid_arg "Bignum.of_hex"
  in
  let ndigits = ref 0 in
  for i = pos to pos + len - 1 do
    if digit s.[i] >= 0 then incr ndigits
  done;
  let r = Array.make (((4 * !ndigits) + limb_bits - 1) / limb_bits) 0 in
  let bitpos = ref 0 in
  for i = pos + len - 1 downto pos do
    let d = digit s.[i] in
    if d >= 0 then begin
      put r !bitpos d;
      bitpos := !bitpos + 4
    end
  done;
  normalize r

let of_hex s = of_hex_sub s ~pos:0 ~len:(String.length s)

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

module For_testing = struct
  let divmod = divmod
  let bit = bit
end
