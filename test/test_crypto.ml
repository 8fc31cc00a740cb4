(* Crypto substrate tests: bignum arithmetic (with qcheck properties against
   native-int references), SHA-256 / HMAC / RC4 standard test vectors, prime
   generation, RSA and DSA roundtrips and tamper-rejection. *)

module B = Wedge_crypto.Bignum
module Drbg = Wedge_crypto.Drbg
module Prime = Wedge_crypto.Prime
module Rsa = Wedge_crypto.Rsa
module Dsa = Wedge_crypto.Dsa
module Sha256 = Wedge_crypto.Sha256
module Hmac = Wedge_crypto.Hmac
module Rc4 = Wedge_crypto.Rc4

let check = Alcotest.check
let rng () = Drbg.create ~seed:0x5eed
let zero = B.of_int 0

(* The value of a small bignum, through its big-endian bytes. *)
let to_int b = Bytes.fold_left (fun acc c -> (acc lsl 8) lor Char.code c) 0 (B.to_bytes_be b)

(* 2^n, by doubling. *)
let pow2 n =
  let x = ref B.one in
  for _ = 1 to n do
    x := B.add !x !x
  done;
  !x

(* A second shared key, distinct from [Rsa.demo_key]. *)
let demo_key2 =
  let key = lazy (Rsa.For_testing.keygen ~bits:512 (Drbg.create ~seed:0xBADCAB)) in
  fun () -> Lazy.force key

(* The longest payload [Rsa.encrypt] takes: the modulus's bytes less the
   padding's 0x02, eight random bytes, 0x00 and the byte that keeps the
   padded value below n. *)
let max_payload pub = ((B.num_bits pub.Rsa.n + 7) / 8) - 11

(* [Rc4.crypt_into] a fresh buffer. *)
let rc4 t b =
  let out = Bytes.create (Bytes.length b) in
  Rc4.crypt_into t b 0 out 0 (Bytes.length b);
  out

(* ---------- Bignum ---------- *)

let test_bignum_int_roundtrip () =
  List.iter
    (fun n -> check Alcotest.int (string_of_int n) n (to_int (B.of_int n)))
    [ 0; 1; 2; 255; 256; 65535; 1 lsl 26; (1 lsl 26) - 1; 123456789; max_int / 2 ]

let test_bignum_hex () =
  check Alcotest.string "hex" "deadbeef" (B.to_hex (B.of_hex "DEADBEEF"));
  check Alcotest.string "zero" "0" (B.to_hex zero);
  check Alcotest.int "hex value" 0xdeadbeef (to_int (B.of_hex "deadbeef"));
  check Alcotest.string "separators skipped" "deadbeef01" (B.to_hex (B.of_hex "dead_BEEF 01"));
  check Alcotest.string "leading zeros dropped" "1" (B.to_hex (B.of_hex "0000_0001"));
  check Alcotest.bool "empty is zero" true (B.is_zero (B.of_hex ""));
  match B.of_hex "12g4" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_bignum_bytes_be () =
  let b = Bytes.of_string "\x01\x02\x03" in
  check Alcotest.int "of_bytes" 0x010203 (to_int (B.of_bytes_be b));
  check Alcotest.string "to_bytes padded" "\x00\x01\x02\x03"
    (Bytes.to_string (B.to_bytes_be ~len:4 (B.of_int 0x010203)));
  (match B.to_bytes_be ~len:2 (B.of_int 0x010203) with
  | _ -> Alcotest.fail "expected overflow rejection"
  | exception Invalid_argument _ -> ());
  check Alcotest.string "zero is one byte" "\x00" (Bytes.to_string (B.to_bytes_be zero))

let test_bignum_sub_negative_rejected () =
  match B.sub (B.of_int 3) (B.of_int 5) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_bignum_divmod_by_zero () =
  match B.rem B.one zero with
  | _ -> Alcotest.fail "expected Division_by_zero"
  | exception Division_by_zero -> ()

let test_bignum_modexp_known () =
  (* 5^117 mod 19 = 1 (5 has order dividing 18; 117 mod 18 = 9; 5^9 mod 19 = 5^9 = 1953125 mod 19) *)
  let v = B.modexp ~base:(B.of_int 5) ~exp:(B.of_int 117) ~m:(B.of_int 19) in
  check Alcotest.int "5^117 mod 19" (let rec p b e m acc = if e = 0 then acc else p b (e-1) m (acc * b mod m) in p 5 117 19 1) (to_int v);
  let v2 = B.modexp ~base:(B.of_hex "123456789abcdef") ~exp:(B.of_int 2) ~m:(B.of_hex "fffffffffffffff1") in
  let expected =
    let x = B.of_hex "123456789abcdef" in
    B.rem (B.mul x x) (B.of_hex "fffffffffffffff1")
  in
  check Alcotest.bool "square mod big" true (B.equal v2 expected)

let test_bignum_modinv () =
  let m = B.of_int 97 in
  for a = 1 to 96 do
    let inv = B.modinv (B.of_int a) ~m in
    check Alcotest.int (Printf.sprintf "inv %d" a) 1 (to_int (B.rem (B.mul (B.of_int a) inv) m))
  done;
  match B.modinv (B.of_int 6) ~m:(B.of_int 9) with
  | _ -> Alcotest.fail "expected Not_found for non-coprime"
  | exception Not_found -> ()

let test_bignum_shift () =
  let x = B.of_hex "123456789abcdef0" in
  check Alcotest.bool "shl/shr inverse" true (B.equal x (B.shift_right (B.mul x (pow2 37)) 37));
  check Alcotest.int "shr drops" 0x12 (to_int (B.shift_right x 56));
  check Alcotest.int "num_bits" 61 (B.num_bits x)

let small = QCheck.int_range 0 0x3fffffff

let prop_add_matches_int =
  QCheck.Test.make ~name:"bignum add matches int" ~count:200 (QCheck.pair small small)
    (fun (a, b) -> to_int (B.add (B.of_int a) (B.of_int b)) = a + b)

let prop_mul_matches_int =
  QCheck.Test.make ~name:"bignum mul matches int" ~count:200
    (QCheck.pair (QCheck.int_range 0 0x7fffffff) (QCheck.int_range 0 0x7fffffff))
    (fun (a, b) -> to_int (B.mul (B.of_int a) (B.of_int b)) = a * b)

let prop_divmod_identity =
  QCheck.Test.make ~name:"a = q*b + r with r < b" ~count:200
    (QCheck.pair (QCheck.int_range 0 max_int) (QCheck.int_range 1 max_int))
    (fun (a, b) ->
      let q, r = B.For_testing.divmod (B.of_int a) (B.of_int b) in
      to_int q = a / b && to_int r = a mod b)

let prop_big_divmod_identity =
  (* Same identity over operands far beyond the int range. *)
  QCheck.Test.make ~name:"big divmod reconstructs dividend" ~count:60
    (QCheck.pair (QCheck.int_range 1 1_000_000) (QCheck.int_range 1 1_000_000))
    (fun (sa, sb) ->
      let ra = Drbg.create ~seed:sa and rb = Drbg.create ~seed:sb in
      let a = B.random_bits ra ~bits:300 and b = B.random_bits rb ~bits:130 in
      let q, r = B.For_testing.divmod a b in
      B.equal a (B.add (B.mul q b) r) && B.compare r b < 0)

let prop_modexp_matches_naive =
  QCheck.Test.make ~name:"modexp matches naive square-and-multiply" ~count:50
    (QCheck.triple (QCheck.int_range 2 9999) (QCheck.int_range 0 50) (QCheck.int_range 2 9999))
    (fun (b, e, m) ->
      let rec naive acc i = if i = 0 then acc else naive (acc * b mod m) (i - 1) in
      to_int (B.modexp ~base:(B.of_int b) ~exp:(B.of_int e) ~m:(B.of_int m)) = naive 1 e)

let prop_bytes_roundtrip =
  QCheck.Test.make ~name:"of_bytes_be . to_bytes_be = id" ~count:100
    (QCheck.int_range 1 1_000_000)
    (fun seed ->
      let r = Drbg.create ~seed in
      let v = B.random_bits r ~bits:(1 + Drbg.int_below r 300) in
      B.equal v (B.of_bytes_be (B.to_bytes_be v)))

(* A value of exactly [w] bits, or zero when [w] is 0. *)
let random_width r w = if w = 0 then zero else B.random_bits r ~bits:w

(* Right-to-left square-and-multiply over [mul] and [rem]: the reference
   every [modexp] path must agree with. *)
let reference_modexp ~base ~exp ~m =
  let result = ref (B.rem B.one m) and b = ref (B.rem base m) in
  for i = 0 to B.num_bits exp - 1 do
    if B.For_testing.bit exp i then result := B.rem (B.mul !result !b) m;
    b := B.rem (B.mul !b !b) m
  done;
  !result

let prop_modexp_matches_reference =
  QCheck.Test.make ~name:"modexp matches mul/rem reference, odd and even moduli" ~count:60
    (QCheck.pair (QCheck.int_range 1 1_000_000) QCheck.bool)
    (fun (seed, odd) ->
      let r = Drbg.create ~seed in
      let mbits = 2 + Drbg.int_below r 599 in
      let m = B.random_bits r ~bits:mbits in
      let m =
        match (odd, B.is_even m) with
        | true, true -> B.add m B.one
        | false, false -> B.sub m B.one
        | _ -> m
      in
      let base = random_width r (Drbg.int_below r ((2 * mbits) + 1)) in
      let exp = random_width r (Drbg.int_below r 601) in
      B.is_even m <> odd && B.equal (B.modexp ~base ~exp ~m) (reference_modexp ~base ~exp ~m))

let prop_divmod_shapes =
  (* Dividends narrower than, as wide as, and far wider than the divisor. *)
  QCheck.Test.make ~name:"divmod: a = q*b + r, r < b, at every width" ~count:150
    (QCheck.pair (QCheck.int_range 1 1_000_000) (QCheck.int_range 0 2))
    (fun (seed, shape) ->
      let r = Drbg.create ~seed in
      let bbits = 8 + Drbg.int_below r 513 in
      let abits =
        match shape with 0 -> Drbg.int_below r bbits | 1 -> bbits | _ -> 1_040
      in
      let a = random_width r abits and b = B.random_bits r ~bits:bbits in
      let q, rm = B.For_testing.divmod a b in
      B.equal a (B.add (B.mul q b) rm) && B.compare rm b < 0)

let prop_conversions_roundtrip =
  QCheck.Test.make ~name:"hex and left-padded bytes roundtrip to 1,100 bits" ~count:150
    (QCheck.int_range 1 1_000_000)
    (fun seed ->
      let r = Drbg.create ~seed in
      let v = B.random_bits r ~bits:(1 + Drbg.int_below r 1_100) in
      let bare = B.to_bytes_be v in
      let pad = Drbg.int_below r 9 in
      let padded = B.to_bytes_be ~len:(Bytes.length bare + pad) v in
      B.equal v (B.of_hex (B.to_hex v))
      && Bytes.equal padded (Bytes.cat (Bytes.make pad '\000') bare)
      && B.equal v (B.of_bytes_be padded))

let test_bignum_modexp_edges () =
  let m = B.of_int 97 in
  check Alcotest.int "x^0 = 1" 1 (to_int (B.modexp ~base:(B.of_int 5) ~exp:zero ~m));
  check Alcotest.int "0^x = 0" 0 (to_int (B.modexp ~base:zero ~exp:(B.of_int 5) ~m));
  check Alcotest.int "mod 1 = 0" 0 (to_int (B.modexp ~base:(B.of_int 5) ~exp:(B.of_int 5) ~m:B.one));
  (* Every residue of odd moduli with square factors, where powers reach
     0 mod m: a result must come out reduced (0, not m). *)
  let wrong =
    List.concat_map
      (fun m ->
        List.concat_map
          (fun b ->
            List.filter_map
              (fun e ->
                let rec naive acc i = if i = 0 then acc else naive (acc * b mod m) (i - 1) in
                let got = to_int (B.modexp ~base:(B.of_int b) ~exp:(B.of_int e) ~m:(B.of_int m)) in
                if got = naive 1 e then None else Some (Printf.sprintf "%d^%d mod %d = %d" b e m got))
              (List.init 7 Fun.id))
          (List.init (2 * m) Fun.id))
      [ 9; 45; 63; 75; 125 ]
  in
  check Alcotest.(list string) "small odd moduli, every base below 2m" [] wrong;
  match B.modexp ~base:B.one ~exp:B.one ~m:zero with
  | _ -> Alcotest.fail "expected Division_by_zero"
  | exception Division_by_zero -> ()

(* Little-endian base-2^26 limbs as a number. *)
let of_limbs l = List.fold_right (fun x acc -> B.add (B.mul acc (pow2 26)) (B.of_int x)) l zero

let test_bignum_divmod_edges () =
  let top = (1 lsl 26) - 1 and half = 1 lsl 25 in
  let r = Drbg.create ~seed:0xd1d in
  let limbs n = List.init n (fun _ -> Drbg.int_below r (1 lsl 26)) in
  let cases =
    [
      (* The first estimate of a quotient digit is one too high, so
         algorithm D adds the divisor back. *)
      ("add-back, top limb 1", [ 0; 0; 0; 1 ], [ 1; 0; 1 ]);
      ("add-back, top bit set", [ 0; 0; 0; 1 ], [ 1; 0; half ]);
      ("add-back, top limb all ones", [ 0; 0; top - 1; 1 ], [ 1; 0; top ]);
      ("add-back, two quotient digits", [ 0; 0; 0; 0; 1 ], [ 1; 0; 1 ]);
      ("add-back, below a non-zero digit", [ 0; 1; top - 1; 0; 1 ], [ 1; 0; half + 1 ]);
      (* Divisors whose top limb is 1: the widest shift of the estimate. *)
      ("top limb 1, two limbs", [ top; top; top; top ], [ top; 1 ]);
      ("top limb 1, one limb longer", [ 5; 0; 7; 2 ], [ top; 0; 1 ]);
      ("top limb 1, random", limbs 9, limbs 4 @ [ 1 ]);
      (* Dividends one limb longer than the divisor. *)
      ("one limb longer, one-limb divisor", [ top; top ], [ 3 ]);
      ("one limb longer, equal top limbs", [ 0; 0; top ], [ top; top ]);
      ("one limb longer, random", limbs 7 @ [ top ], limbs 5 @ [ half ]);
      ("equal length", [ top; 3 ], [ top; 2 ]);
    ]
  in
  List.iter
    (fun (name, a, b) ->
      let a = of_limbs a and b = of_limbs b in
      let q, rm = B.For_testing.divmod a b in
      check Alcotest.bool (name ^ ": a = q*b + r") true (B.equal a (B.add (B.mul q b) rm));
      check Alcotest.bool (name ^ ": r < b") true (B.compare rm b < 0);
      check Alcotest.bool (name ^ ": rem agrees") true (B.equal rm (B.rem a b)))
    cases

(* Exponents the window scan treats specially, each checked against
   [reference_modexp]: 2^k and 2^k - 1 across the 64-bit switch from the
   binary ladder to 4-bit windows, set bits on either side of window
   boundaries, and zero runs longer than a window.  The moduli include
   demo_key's primes, written out: a broken scan also breaks the
   Miller-Rabin test keygen runs. *)
let test_bignum_modexp_windows () =
  let r = Drbg.create ~seed:0x3d9 in
  (* bits [0], [step], [2 * step], ... below [width] *)
  let every step width =
    List.fold_left B.add zero (List.init ((width + step - 1) / step) (fun i -> pow2 (i * step)))
  in
  let exps =
    [ ("1", B.one); ("64 bits", B.random_bits r ~bits:64); ("65 bits", B.random_bits r ~bits:65) ]
    @ List.concat_map
        (fun n ->
          [ (Printf.sprintf "2^%d" n, pow2 n); (Printf.sprintf "2^%d - 1" n, B.sub (pow2 n) B.one) ])
        [ 1; 4; 5; 63; 64; 65; 130; 256 ]
    @ [
        ("every 4th bit", every 4 201);
        ("every 5th bit", every 5 201);
        ("pairs astride windows", B.add (every 4 200) (B.add (every 4 200) (every 4 200)));
        ("zero runs of 9", every 10 251);
        ("2^100 + 1", B.add (pow2 100) B.one);
        ("1001 repeated", B.of_hex (String.make 40 '9'));
        ("8421 repeated", B.of_hex (String.concat "" (List.init 10 (fun _ -> "8421"))));
      ]
  in
  let moduli =
    [
      ("1 limb", B.of_int 0x3fffffb);
      ("2 limbs", B.of_hex "f_ffff_fffe_0001");
      ("demo_key p", B.of_hex "86b187f7373fcc553cc00dab5101f9bf9e8df3ac24aaa23c918d5ca9a40a8923");
      ("demo_key q", B.of_hex "bc4e43c10dfcdc013422195e131d0e46ca9d885f01c480a0f07269546c011a5b");
    ]
  in
  let wrong =
    List.concat_map
      (fun (mname, m) ->
        let bases =
          [
            zero;
            B.one;
            B.two;
            B.sub m B.one;
            B.random_below r m;
            B.random_bits r ~bits:(2 * B.num_bits m);
            (* wider than the division area of twice the modulus *)
            B.random_bits r ~bits:(5 * B.num_bits m);
          ]
        in
        List.concat_map
          (fun (ename, exp) ->
            List.filter_map
              (fun base ->
                if B.equal (B.modexp ~base ~exp ~m) (reference_modexp ~base ~exp ~m) then None
                else Some (Printf.sprintf "%s, %s, base %s" mname ename (B.to_hex base)))
              bases)
          exps)
      moduli
  in
  check Alcotest.(list string) "every window shape agrees with the reference" [] wrong

(* Montgomery multiplication lets each column of its work area collect
   up to 2k limb products before it carries, which 2k * 2^52 plus a
   carry bounds below 2^62 up to 511 limbs; wider odd moduli take the
   ladder.  An all-ones modulus (every limb 2^26 - 1) with bases whose
   limbs are all at or next to 2^26 - 1 fills the columns nearest that
   bound: m - 1 squares to 1, and its square's products are all but
   maximal.  Checked against [reference_modexp] at 20, 64 and 511 limbs
   with short exponents (and an 80-bit one, which takes 4-bit windows,
   below 511), and at 512 limbs, where the ladder must agree too.  A
   column leaves through [lsr], which reads it as an unsigned 63-bit
   value, so only a width far past the bound overflows one: at 4,096
   limbs (exponent 2 alone, the ladder's cost) every base disagrees if
   the width goes unchecked. *)
let test_mont_mul_column_bound () =
  let top = (1 lsl 26) - 1 in
  let r = Drbg.create ~seed:0xc01 in
  let wrong =
    List.concat_map
      (fun k ->
        let m = of_limbs (List.init k (fun _ -> top)) in
        let bases =
          [
            ("m - 1", B.sub m B.one);
            ("m - 2", B.sub m B.two);
            ("limbs near 2^26 - 1", of_limbs (List.init k (fun _ -> top - Drbg.int_below r 64)));
          ]
        in
        let exps =
          if k > 512 then [ ("2", B.two) ]
          else
            [ ("2", B.two); ("3", B.of_int 3); ("65537", B.of_int 65537) ]
            @ if k < 511 then [ ("80 bits", B.random_bits r ~bits:80) ] else []
        in
        List.concat_map
          (fun (bname, base) ->
            List.filter_map
              (fun (ename, exp) ->
                if B.equal (B.modexp ~base ~exp ~m) (reference_modexp ~base ~exp ~m) then None
                else Some (Printf.sprintf "%d limbs, base %s, exponent %s" k bname ename))
              exps)
          bases)
      [ 20; 64; 511; 512; 4_096 ]
  in
  check Alcotest.(list string) "every width agrees with the reference" [] wrong

(* [modexp] at every limb count k from 1 to 24.  [mont_mul] adds rows in
   pairs, two columns per turn: an odd k ends with a single row and
   leaves one column over in each pair's turns, an even k does neither.
   Each modulus has a full top limb (within base^(k-1) of base^k); the
   bases are zero, m itself, values above m up to twice its width, and
   two below it; the exponents 0, 1, 2, 65537 and one long enough for
   4-bit windows. *)
let prop_modexp_every_width =
  QCheck.Test.make ~name:"modexp at every limb count" ~count:8 (QCheck.int_range 1 1_000_000)
    (fun seed ->
      let r = Drbg.create ~seed in
      let top = (1 lsl 26) - 1 in
      List.for_all
        (fun k ->
          (* odd, with a full top limb *)
          let low = List.init (k - 1) (fun _ -> Drbg.int_below r (1 lsl 26)) in
          let m = of_limbs (low @ [ top ]) in
          let m = if B.is_even m then B.add m B.one else m in
          let bases =
            [
              zero;
              m;
              B.add m (B.random_bits r ~bits:(1 + Drbg.int_below r (26 * k)));
              B.random_bits r ~bits:(52 * k);
              B.sub m B.one;
              B.random_below r m;
            ]
          in
          let exps =
            [ zero; B.one; B.two; B.of_int 65537; B.random_bits r ~bits:(65 + Drbg.int_below r 64) ]
          in
          List.for_all
            (fun base ->
              List.for_all
                (fun exp -> B.equal (B.modexp ~base ~exp ~m) (reference_modexp ~base ~exp ~m))
                exps)
            bases)
        (List.init 24 (fun i -> i + 1)))

let test_dsa_params_are_sound () =
  let p = Dsa.demo_params () in
  (* q divides p-1 and g has order q. *)
  check Alcotest.bool "q | p-1" true
    (B.is_zero (B.rem (B.sub p.Dsa.p B.one) p.Dsa.q));
  check Alcotest.bool "g^q = 1 mod p" true
    (B.equal (B.modexp ~base:p.Dsa.g ~exp:p.Dsa.q ~m:p.Dsa.p) B.one);
  check Alcotest.bool "g <> 1" false (B.equal p.Dsa.g B.one)

(* ---------- SHA-256 ---------- *)

let test_sha256_vectors () =
  let t s = Sha256.hex (Sha256.digest_string s) in
  check Alcotest.string "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855" (t "");
  check Alcotest.string "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" (t "abc");
  check Alcotest.string "two-block"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (t "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check Alcotest.string "448-bit edge"
    "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
    (t "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")

let test_sha256_incremental () =
  let one_shot = Sha256.digest_string "the quick brown fox jumps over the lazy dog" in
  let ctx = Sha256.init () in
  List.iter (Sha256.update_string ctx) [ "the quick brown "; "fox jumps "; ""; "over the lazy dog" ];
  check Alcotest.string "incremental = one-shot" (Sha256.hex one_shot) (Sha256.hex (Sha256.final ctx))

let prop_sha256_incremental_split =
  QCheck.Test.make ~name:"sha256: any split gives same digest" ~count:100
    (QCheck.pair (QCheck.string_of_size (QCheck.Gen.int_range 0 300)) (QCheck.int_range 0 300))
    (fun (s, cut) ->
      let cut = min cut (String.length s) in
      let ctx = Sha256.init () in
      Sha256.update_string ctx (String.sub s 0 cut);
      Sha256.update_string ctx (String.sub s cut (String.length s - cut));
      Sha256.final ctx = Sha256.digest_string s)

(* ---------- HMAC ---------- *)

let test_hmac_rfc4231 () =
  let tag1 = Hmac.mac ~key:(Bytes.make 20 '\x0b') (Bytes.of_string "Hi There") in
  check Alcotest.string "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7" (Sha256.hex tag1);
  let tag2 = Hmac.mac ~key:(Bytes.of_string "Jefe") (Bytes.of_string "what do ya want for nothing?") in
  check Alcotest.string "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843" (Sha256.hex tag2);
  (* long key (> block size) *)
  let tag3 = Hmac.mac ~key:(Bytes.make 131 '\xaa') (Bytes.of_string "Test Using Larger Than Block-Size Key - Hash Key First") in
  check Alcotest.string "case 6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54" (Sha256.hex tag3)

let test_hmac_verify () =
  let key = Bytes.of_string "k" in
  let data = Bytes.of_string "data" in
  let tag = Hmac.mac ~key data in
  check Alcotest.bool "accepts" true (Hmac.verify ~key data ~tag);
  Bytes.set tag 5 (Char.chr (Char.code (Bytes.get tag 5) lxor 1));
  check Alcotest.bool "rejects flipped bit" false (Hmac.verify ~key data ~tag);
  check Alcotest.bool "rejects short tag" false (Hmac.verify ~key data ~tag:(Bytes.sub tag 0 16))

(* ---------- RC4 ---------- *)

let test_rc4_vectors () =
  let hexify b = String.concat "" (List.map (fun c -> Printf.sprintf "%02X" (Char.code c)) (List.of_seq (Bytes.to_seq b))) in
  let enc key pt = hexify (rc4 (Rc4.create ~key:(Bytes.of_string key)) (Bytes.of_string pt)) in
  check Alcotest.string "Key/Plaintext" "BBF316E8D940AF0AD3" (enc "Key" "Plaintext");
  check Alcotest.string "Wiki/pedia" "1021BF0420" (enc "Wiki" "pedia");
  check Alcotest.string "Secret/dawn" "45A01F645FC35B383552544B9BF5" (enc "Secret" "Attack at dawn")

let test_rc4_roundtrip_and_state () =
  let key = Bytes.of_string "some key" in
  let enc = Rc4.create ~key and dec = Rc4.create ~key in
  let msgs = [ "first"; "second message"; "third!" ] in
  List.iter
    (fun m ->
      let ct = rc4 enc (Bytes.of_string m) in
      check Alcotest.string "stream decrypts in order" m (Bytes.to_string (rc4 dec ct)))
    msgs;
  (* Serialisation preserves mid-stream state. *)
  let image t =
    let b = Bytes.create Rc4.state_size in
    Rc4.serialize t b 0;
    b
  in
  let enc2 = Rc4.deserialize (image enc) 0 in
  let dec2 = Rc4.deserialize (image dec) 0 in
  let ct = rc4 enc2 (Bytes.of_string "resumed") in
  check Alcotest.string "state roundtrip" "resumed" (Bytes.to_string (rc4 dec2 ct))

(* The textbook key schedule: key byte [i mod length] at step [i]. *)
let textbook_schedule key =
  let s = Bytes.init 256 Char.chr and j = ref 0 in
  for i = 0 to 255 do
    let si = Bytes.get_uint8 s i in
    j := (!j + si + Bytes.get_uint8 key (i mod Bytes.length key)) land 0xff;
    Bytes.set_uint8 s i (Bytes.get_uint8 s !j);
    Bytes.set_uint8 s !j si
  done;
  s

let prop_rc4_schedule =
  QCheck.Test.make ~name:"key schedule matches textbook" ~count:10 (QCheck.int_range 1 1_000_000)
    (fun seed ->
      let r = Drbg.create ~seed in
      let image = Bytes.create Rc4.state_size in
      List.for_all
        (fun len ->
          let key = Drbg.bytes r len in
          Rc4.serialize (Rc4.create ~key) image 0;
          Bytes.equal image (Bytes.cat (textbook_schedule key) (Bytes.make 2 '\000')))
        (List.init 256 (fun i -> i + 1)))

(* ---------- Prime ---------- *)

let test_prime_known () =
  let r = rng () in
  List.iter
    (fun (n, expect) ->
      check Alcotest.bool (string_of_int n) expect (Prime.is_prime r (B.of_int n)))
    [ (0, false); (1, false); (2, true); (3, true); (4, false); (17, true); (561, false) (* Carmichael *);
      (7919, true); (7917, false); (104729, true); (104730, false) ]

let test_prime_large () =
  let r = rng () in
  (* 2^89 - 1 is a Mersenne prime; 2^67 - 1 is famously composite. *)
  let m89 = B.sub (pow2 89) B.one in
  let m67 = B.sub (pow2 67) B.one in
  check Alcotest.bool "M89 prime" true (Prime.is_prime r m89);
  check Alcotest.bool "M67 composite" false (Prime.is_prime r m67)

let test_gen_prime_bits () =
  let r = rng () in
  let p = Prime.gen_prime r ~bits:64 in
  check Alcotest.int "exact bits" 64 (B.num_bits p);
  check Alcotest.bool "prime" true (Prime.is_prime r p)

(* ---------- RSA ---------- *)

let test_rsa_roundtrip () =
  let k = Rsa.demo_key () in
  let r = rng () in
  let msg = Bytes.of_string "premaster-secret-48-bytes-................" in
  let ct = Rsa.encrypt r k.Rsa.pub msg in
  check Alcotest.bool "decrypts" true (Rsa.decrypt k ct = Some msg)

let test_rsa_padding_randomizes () =
  let k = Rsa.demo_key () in
  let r = rng () in
  let msg = Bytes.of_string "same message" in
  let c1 = Rsa.encrypt r k.Rsa.pub msg and c2 = Rsa.encrypt r k.Rsa.pub msg in
  check Alcotest.bool "ciphertexts differ" false (Bytes.equal c1 c2)

let test_rsa_wrong_key_fails () =
  let k1 = Rsa.demo_key () and k2 = demo_key2 () in
  let r = rng () in
  let ct = Rsa.encrypt r k1.Rsa.pub (Bytes.of_string "for key 1") in
  check Alcotest.bool "other key cannot decrypt" true (Rsa.decrypt k2 ct <> Some (Bytes.of_string "for key 1"))

let test_rsa_tampered_ct_fails () =
  let k = Rsa.demo_key () in
  let r = rng () in
  let ct = Rsa.encrypt r k.Rsa.pub (Bytes.of_string "payload") in
  Bytes.set ct 10 (Char.chr (Char.code (Bytes.get ct 10) lxor 0x40));
  check Alcotest.bool "padding check rejects" true (Rsa.decrypt k ct <> Some (Bytes.of_string "payload"))

let test_rsa_pub_serialization () =
  let k = Rsa.demo_key () in
  match Rsa.pub_of_string (Rsa.pub_to_string k.Rsa.pub) with
  | Some p ->
      check Alcotest.bool "n" true (B.equal p.Rsa.n k.Rsa.pub.Rsa.n);
      check Alcotest.bool "e" true (B.equal p.Rsa.e k.Rsa.pub.Rsa.e)
  | None -> Alcotest.fail "roundtrip failed"

let test_rsa_max_payload_enforced () =
  let k = Rsa.demo_key () in
  let r = rng () in
  let too_big = Bytes.create (max_payload k.Rsa.pub + 1) in
  match Rsa.encrypt r k.Rsa.pub too_big with
  | _ -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ()

let prop_rsa_roundtrip_random =
  QCheck.Test.make ~name:"rsa roundtrips random payloads" ~count:15
    (QCheck.string_of_size (QCheck.Gen.int_range 1 30))
    (fun s ->
      let k = Rsa.demo_key () in
      let r = Drbg.create ~seed:(Hashtbl.hash s) in
      Rsa.decrypt k (Rsa.encrypt r k.Rsa.pub (Bytes.of_string s)) = Some (Bytes.of_string s))

(* The CRT private operation must agree with the plain x^d mod n. *)
let test_rsa_crt_matches_modexp () =
  let r = rng () in
  let fresh = Rsa.For_testing.keygen ~bits:256 (Drbg.create ~seed:0x256) in
  (* Garner's recombination must not assume balanced primes: here
     mq is usually far above p. *)
  let unbalanced =
    let r = Drbg.create ~seed:0x64 in
    let p = Prime.gen_prime r ~bits:64 and q = Prime.gen_prime r ~bits:192 in
    let e = B.of_int 65537 in
    let fields =
      [ e; B.mul p q; p; q; B.modinv e ~m:(B.sub p B.one); B.modinv e ~m:(B.sub q B.one);
        B.modinv q ~m:p ]
    in
    Option.get (Rsa.priv_of_string (String.concat ":" ("rsapriv" :: List.map B.to_hex fields)))
  in
  List.iter
    (fun (name, k) ->
      let { Rsa.n; e } = k.Rsa.pub in
      let len = (B.num_bits n + 7) / 8 in
      let d = B.modinv e ~m:(B.mul (B.sub k.Rsa.p B.one) (B.sub k.Rsa.q B.one)) in
      let plain x = B.to_bytes_be ~len (B.modexp ~base:x ~exp:d ~m:n) in
      for i = 1 to 8 do
        let payload = Drbg.bytes r (1 + Drbg.int_below r (max_payload k.Rsa.pub)) in
        let ct = Rsa.encrypt r k.Rsa.pub payload in
        let block = plain (B.of_bytes_be ct) in
        let plen = Bytes.length payload in
        check Alcotest.string (Printf.sprintf "%s: x^d ends in the payload %d" name i)
          (Bytes.to_string payload)
          (Bytes.sub_string block (len - plen) plen);
        check Alcotest.bool (Printf.sprintf "%s: decrypt %d" name i) true
          (Rsa.decrypt k ct = Some payload)
      done)
    [
      ("demo_key", Rsa.demo_key ());
      ("demo_key2", demo_key2 ());
      ("keygen 256", fresh);
      ("64-bit p, 192-bit q", unbalanced);
    ]

(* Pins [demo_key] itself: a ciphertext of "wedge", encrypted under it
   from a fixed seed and written out, must still decrypt. *)
let test_rsa_decrypt_known_answer () =
  let ct =
    B.to_bytes_be ~len:64
      (B.of_hex
         "22dee79d4574d317c22a3e246652d3f0063ee6e4d2ff0300a9f0bc5bc648801b\
          8a5b1f77e7d023d7eb3512b82f3818b5b6d4cc8775884d4c181f4391743cd95c")
  in
  check Alcotest.(option string) "demo_key decrypts \"wedge\"" (Some "wedge")
    (Option.map Bytes.to_string (Rsa.decrypt (Rsa.demo_key ()) ct))

(* The key block with field [i] (0 the tag, then e, n, p, q, dp, dq,
   qinv) replaced by [v]: a corrupt block, built the way an attacker
   with write access to the tag would build it. *)
let edit_field block i v =
  String.concat ":" (List.mapi (fun j f -> if j = i then v else f) (String.split_on_char ':' block))

let parses block = Rsa.priv_of_string block <> None

let test_rsa_priv_serialization () =
  List.iter
    (fun k ->
      match Rsa.priv_of_string (Rsa.priv_to_string k) with
      | Some k' -> check Alcotest.string "roundtrip" (Rsa.priv_to_string k) (Rsa.priv_to_string k')
      | None -> Alcotest.fail "roundtrip rejected")
    [ Rsa.demo_key (); demo_key2 () ];
  (* p and q are load-bearing under CRT: a block whose primes do not
     multiply to n is corrupt. *)
  let k = Rsa.demo_key () in
  let block = Rsa.priv_to_string k and hex = B.to_hex in
  check Alcotest.bool "another key's p" false
    (parses (edit_field block 3 (hex (demo_key2 ()).Rsa.p)));
  check Alcotest.bool "p = 1" false (parses (edit_field block 3 "1"));
  check Alcotest.bool "p = 1, q = n" false
    (parses (edit_field (edit_field block 3 "1") 4 (hex k.Rsa.pub.Rsa.n)))

(* Each CRT field is checked on its own.  The range cases edit a field to
   a value that still gives the right x^d (an exponent off by a multiple
   of p - 1, an inverse off by a multiple of p), so only the field's own
   range check can refuse it; the inverse cases edit it to a value in
   range that no longer inverts e (or q), which would make the private
   operation right mod one prime and wrong mod the other. *)
let test_rsa_block_dp () =
  let k = Rsa.demo_key () in
  let block = Rsa.priv_to_string k and p1 = B.sub k.Rsa.p B.one in
  let dp' = B.add k.Rsa.dp p1 and x = B.of_int 0xC0FFEE in
  check Alcotest.bool "dp + (p - 1) gives the same x^dp" true
    (B.equal (B.modexp ~base:x ~exp:dp' ~m:k.Rsa.p) (B.modexp ~base:x ~exp:k.Rsa.dp ~m:k.Rsa.p));
  check Alcotest.bool "dp = p - 1 refused" false (parses (edit_field block 5 (B.to_hex p1)));
  check Alcotest.bool "dp + (p - 1) refused" false (parses (edit_field block 5 (B.to_hex dp')))

let test_rsa_block_dq () =
  let k = Rsa.demo_key () in
  let block = Rsa.priv_to_string k and q1 = B.sub k.Rsa.q B.one in
  let dq' = B.add k.Rsa.dq q1 and x = B.of_int 0xC0FFEE in
  check Alcotest.bool "dq + (q - 1) gives the same x^dq" true
    (B.equal (B.modexp ~base:x ~exp:dq' ~m:k.Rsa.q) (B.modexp ~base:x ~exp:k.Rsa.dq ~m:k.Rsa.q));
  check Alcotest.bool "dq = q - 1 refused" false (parses (edit_field block 6 (B.to_hex q1)));
  check Alcotest.bool "dq + (q - 1) refused" false (parses (edit_field block 6 (B.to_hex dq')))

(* Field [field] of the block, whose value [x] inverts e mod [m1], edited
   to [x - 1] and [x + 1]: in range, but not e's inverse. *)
let refuses_non_inverse ~field ~name x m1 =
  let block = Rsa.priv_to_string (Rsa.demo_key ()) in
  List.iter
    (fun (label, v) ->
      check Alcotest.bool (label ^ " in range") true (B.compare v m1 < 0);
      check Alcotest.bool (label ^ " refused") false (parses (edit_field block field (B.to_hex v))))
    [ (name ^ " - 1", B.sub x B.one); (name ^ " + 1", B.rem (B.add x B.one) m1) ]

let test_rsa_block_dp_inverse () =
  let k = Rsa.demo_key () in
  refuses_non_inverse ~field:5 ~name:"dp" k.Rsa.dp (B.sub k.Rsa.p B.one)

let test_rsa_block_dq_inverse () =
  let k = Rsa.demo_key () in
  refuses_non_inverse ~field:6 ~name:"dq" k.Rsa.dq (B.sub k.Rsa.q B.one)

let test_rsa_block_qinv_range () =
  let k = Rsa.demo_key () in
  let block = Rsa.priv_to_string k and qinv' = B.add k.Rsa.qinv k.Rsa.p in
  check Alcotest.bool "qinv + p still inverts q" true
    (B.equal (B.rem (B.mul qinv' k.Rsa.q) k.Rsa.p) B.one);
  check Alcotest.bool "qinv + p refused" false (parses (edit_field block 7 (B.to_hex qinv')))

let test_rsa_block_qinv_inverse () =
  let k = Rsa.demo_key () in
  let block = Rsa.priv_to_string k in
  let off_by_one = B.rem (B.add k.Rsa.qinv B.one) k.Rsa.p in
  check Alcotest.bool "qinv + 1 refused" false (parses (edit_field block 7 (B.to_hex off_by_one)));
  check Alcotest.bool "qinv = 0 refused" false (parses (edit_field block 7 "0"))

let test_rsa_block_field_count () =
  let block = Rsa.priv_to_string (Rsa.demo_key ()) in
  let fields = String.split_on_char ':' block in
  let first n = String.concat ":" (List.filteri (fun i _ -> i < n) fields) in
  check Alcotest.int "tag and seven fields" 8 (List.length fields);
  check Alcotest.bool "whole block parses" true (parses block);
  for n = 1 to 7 do
    check Alcotest.bool (Printf.sprintf "first %d fields refused" n) false (parses (first n))
  done;
  check Alcotest.bool "trailing separator refused" false (parses (block ^ ":"));
  check Alcotest.bool "extra field refused" false (parses (block ^ ":1"));
  check Alcotest.bool "other tag refused" false (parses (edit_field block 0 "rsakey"));
  check Alcotest.bool "non-hex field refused" false (parses (edit_field block 3 "xyz"))

(* ---------- Host allocation ---------- *)

(* Host words one warm call allocates: minor words plus words allocated
   directly in the major heap, as the repository benchmark counts them. *)
let host_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. (major -. promoted)

let words f =
  f ();
  let w0 = host_words () in
  f ();
  host_words () -. w0

(* Fails naming every call whose host words [ok] refuses against its
   pin: [within_bounds] takes a bound, [exactly] a count. *)
let pinned ok pins =
  let off =
    List.filter_map
      (fun (what, pin, f) ->
        let w = words f in
        if ok w pin then None else Some (Printf.sprintf "%s: %.0f host words (pin %.0f)" what w pin))
      pins
  in
  if off <> [] then Alcotest.fail (String.concat "; " off)

let within_bounds = pinned ( <= )
let exactly = pinned ( = )

(* The arithmetic kernels allocate exact word counts: a faster kernel
   must allocate word for word what the one it replaces did, so these
   are equalities.  Each other bound is at least 5x below the words the
   same call allocated before the arithmetic worked in place. *)
let test_host_words_pinned () =
  let k = Rsa.demo_key () in
  let r = rng () in
  let payload = Bytes.make 48 'p' in
  let ct = Rsa.encrypt r k.Rsa.pub payload in
  let block = Rsa.priv_to_string k in
  let kib = Bytes.make 1024 'x' and digest = Sha256.digest_string "wedge" in
  let odd bits =
    let m = B.random_bits r ~bits in
    if B.is_even m then B.add m B.one else m
  in
  let modexp bits =
    let m = odd bits in
    let base = B.random_below r m and exp = B.random_bits r ~bits in
    fun () -> ignore (Sys.opaque_identity (B.modexp ~base ~exp ~m))
  in
  let key = Bytes.make 32 'k' in
  exactly
    [
      ("Bignum.modexp, 256-bit odd modulus and exponent", 126., modexp 256);
      ("Bignum.modexp, 512-bit odd modulus and exponent", 236., modexp 512);
      (* 751 when the CRT exponents were derived per call *)
      ("Rsa.decrypt", 440., fun () -> ignore (Sys.opaque_identity (Rsa.decrypt k ct)));
      ("Rsa.encrypt", 190., fun () -> ignore (Sys.opaque_identity (Rsa.encrypt r k.Rsa.pub payload)));
      ("Rc4.create, 32-byte key", 50., fun () -> ignore (Sys.opaque_identity (Rc4.create ~key)));
    ];
  within_bounds
    [
      ("Rsa.priv_of_string", 2_000., fun () -> ignore (Sys.opaque_identity (Rsa.priv_of_string block)));
      (* What a key gate runs per full handshake: parse the block read
         from its tag, then decrypt.  930 words before the block carried
         its CRT fields (187 parsing, 751 decrypting); 696 now (264
         parsing, which checks dp, dq and qinv as inverses). *)
      ( "Rsa.priv_of_string then Rsa.decrypt",
        700.,
        fun () ->
          Option.iter
            (fun k -> ignore (Sys.opaque_identity (Rsa.decrypt k ct)))
            (Rsa.priv_of_string block) );
      ("Sha256.digest, 1 KiB", 300., fun () -> ignore (Sys.opaque_identity (Sha256.digest kib)));
      ("Sha256.hex, 32 bytes", 100., fun () -> ignore (Sys.opaque_identity (Sha256.hex digest)));
      (* A 16-word rolling message schedule, not 64 words: 54 words in
         all, 102 before. *)
      ("Sha256.init", 70., fun () -> ignore (Sys.opaque_identity (Sha256.init ())));
    ]

(* A record costs the host its own bytes and one HMAC: no concatenated
   copy, no second decryption, no intermediate state image.  The words
   each call allocated when those copies were made are in brackets;
   every bound sits below them. *)
let test_record_layer_host_words () =
  let module Record = Wedge_tls.Record in
  let module Wire = Wedge_tls.Wire in
  let master = Sha256.digest_string "master" and cr = Sha256.digest_string "client random" in
  let sr = Sha256.digest_string "server random" in
  let derive side = Record.derive ~master ~client_random:cr ~server_random:sr ~side in
  let c = derive `Client and s = derive `Server in
  let kib = Bytes.make 1024 'x' and key = Bytes.make 32 'k' and data = Bytes.make 64 'd' in
  (* A recv that copies each read out of one whole frame, as a channel
     does; its copies count against the pin. *)
  let frame = Wire.frame Wire.App_data kib and pos = ref 0 in
  let io =
    Wire.io_of_fns ~send:ignore ~recv:(fun n ->
        let n = min n (Bytes.length frame - !pos) in
        let b = Bytes.sub frame !pos n in
        pos := !pos + n;
        Some b)
  in
  within_bounds
    [
      ("Record.derive [925]", 300., fun () -> ignore (Sys.opaque_identity (derive `Client)));
      ("Record.seal, 1 KiB [642]", 350., fun () -> ignore (Sys.opaque_identity (Record.seal c kib)));
      ( "Record.seal then open_, 1 KiB [1,543]",
        700.,
        fun () -> ignore (Sys.opaque_identity (Record.open_ s (Record.seal c kib))) );
      ( "Record.of_bytes (Record.to_bytes k) [885]",
        250.,
        fun () -> ignore (Sys.opaque_identity (Record.of_bytes (Record.to_bytes c))) );
      ("Hmac.mac, 32-byte key, 64 B [240]", 160., fun () -> ignore (Sys.opaque_identity (Hmac.mac ~key data)));
      ( "Wire.recv_msg, one whole 1 KiB frame [415]",
        200.,
        fun () ->
          pos := 0;
          ignore (Sys.opaque_identity (Wire.recv_msg io)) );
    ]

(* ---------- DSA ---------- *)

let test_dsa_sign_verify () =
  let r = rng () in
  let params = Dsa.demo_params () in
  let key = Dsa.keygen r params in
  let msg = Bytes.of_string "authenticate me" in
  let signature = Dsa.sign r key msg in
  check Alcotest.bool "verifies" true (Dsa.verify key.Dsa.pub msg ~signature);
  check Alcotest.bool "other message rejected" false
    (Dsa.verify key.Dsa.pub (Bytes.of_string "forged") ~signature)

let test_dsa_wrong_key_rejected () =
  let r = rng () in
  let params = Dsa.demo_params () in
  let k1 = Dsa.keygen r params and k2 = Dsa.keygen r params in
  let msg = Bytes.of_string "msg" in
  let signature = Dsa.sign r k1 msg in
  check Alcotest.bool "k2 pub rejects k1 sig" false (Dsa.verify k2.Dsa.pub msg ~signature)

let test_dsa_signature_randomized () =
  let r = rng () in
  let params = Dsa.demo_params () in
  let key = Dsa.keygen r params in
  let msg = Bytes.of_string "m" in
  let r1, s1 = Dsa.sign r key msg and r2, s2 = Dsa.sign r key msg in
  check Alcotest.bool "nonces differ" false (B.equal r1 r2 && B.equal s1 s2)

(* ---------- Drbg ---------- *)

let test_drbg_deterministic () =
  let a = Drbg.create ~seed:7 and b = Drbg.create ~seed:7 in
  check Alcotest.string "same stream" (Bytes.to_string (Drbg.bytes a 64)) (Bytes.to_string (Drbg.bytes b 64));
  let c = Drbg.create ~seed:8 in
  check Alcotest.bool "different seed differs" false
    (Bytes.equal (Drbg.bytes (Drbg.create ~seed:7) 64) (Drbg.bytes c 64))

let test_drbg_int_below_range () =
  let r = rng () in
  for _ = 1 to 1000 do
    let v = Drbg.int_below r 17 in
    if v < 0 || v >= 17 then Alcotest.fail "out of range"
  done

let qcheck tests = List.map Test_rng.to_alcotest tests

let () =
  Alcotest.run "wedge_crypto"
    [
      ( "bignum",
        [
          Alcotest.test_case "int roundtrip" `Quick test_bignum_int_roundtrip;
          Alcotest.test_case "hex" `Quick test_bignum_hex;
          Alcotest.test_case "bytes be" `Quick test_bignum_bytes_be;
          Alcotest.test_case "negative sub rejected" `Quick test_bignum_sub_negative_rejected;
          Alcotest.test_case "div by zero" `Quick test_bignum_divmod_by_zero;
          Alcotest.test_case "modexp known" `Quick test_bignum_modexp_known;
          Alcotest.test_case "modinv exhaustive mod 97" `Quick test_bignum_modinv;
          Alcotest.test_case "shifts" `Quick test_bignum_shift;
          Alcotest.test_case "modexp edges" `Quick test_bignum_modexp_edges;
          Alcotest.test_case "modexp window edges" `Quick test_bignum_modexp_windows;
          Alcotest.test_case "mont_mul column bound" `Quick test_mont_mul_column_bound;
          Alcotest.test_case "divmod digit edges" `Quick test_bignum_divmod_edges;
        ] );
      ( "bignum-properties",
        qcheck
          [
            prop_add_matches_int;
            prop_mul_matches_int;
            prop_divmod_identity;
            prop_big_divmod_identity;
            prop_modexp_matches_naive;
            prop_bytes_roundtrip;
            prop_modexp_matches_reference;
            prop_divmod_shapes;
            prop_conversions_roundtrip;
            prop_modexp_every_width;
          ] );
      ( "sha256",
        [
          Alcotest.test_case "FIPS vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "incremental" `Quick test_sha256_incremental;
        ]
        @ qcheck [ prop_sha256_incremental_split ] );
      ( "hmac",
        [
          Alcotest.test_case "RFC 4231 vectors" `Quick test_hmac_rfc4231;
          Alcotest.test_case "verify" `Quick test_hmac_verify;
        ] );
      ( "rc4",
        [
          Alcotest.test_case "classic vectors" `Quick test_rc4_vectors;
          Alcotest.test_case "roundtrip + state" `Quick test_rc4_roundtrip_and_state;
        ]
        @ qcheck [ prop_rc4_schedule ] );
      ( "prime",
        [
          Alcotest.test_case "known primes" `Quick test_prime_known;
          Alcotest.test_case "large Mersenne" `Quick test_prime_large;
          Alcotest.test_case "gen_prime size" `Quick test_gen_prime_bits;
        ] );
      ( "rsa",
        [
          Alcotest.test_case "roundtrip" `Quick test_rsa_roundtrip;
          Alcotest.test_case "padding randomizes" `Quick test_rsa_padding_randomizes;
          Alcotest.test_case "wrong key fails" `Quick test_rsa_wrong_key_fails;
          Alcotest.test_case "tampered ciphertext" `Quick test_rsa_tampered_ct_fails;
          Alcotest.test_case "pub serialization" `Quick test_rsa_pub_serialization;
          Alcotest.test_case "max payload" `Quick test_rsa_max_payload_enforced;
          Alcotest.test_case "CRT matches x^d mod n" `Quick test_rsa_crt_matches_modexp;
          Alcotest.test_case "decrypt known answer" `Quick test_rsa_decrypt_known_answer;
          Alcotest.test_case "priv serialization" `Quick test_rsa_priv_serialization;
        ]
        @ qcheck [ prop_rsa_roundtrip_random ] );
      ( "rsa-key-block",
        [
          Alcotest.test_case "dp below p-1" `Quick test_rsa_block_dp;
          Alcotest.test_case "dq below q-1" `Quick test_rsa_block_dq;
          Alcotest.test_case "dp inverts e" `Quick test_rsa_block_dp_inverse;
          Alcotest.test_case "dq inverts e" `Quick test_rsa_block_dq_inverse;
          Alcotest.test_case "qinv below p" `Quick test_rsa_block_qinv_range;
          Alcotest.test_case "qinv inverts q" `Quick test_rsa_block_qinv_inverse;
          Alcotest.test_case "seven fields" `Quick test_rsa_block_field_count;
        ] );
      ( "dsa",
        [
          Alcotest.test_case "sign/verify" `Quick test_dsa_sign_verify;
          Alcotest.test_case "wrong key" `Quick test_dsa_wrong_key_rejected;
          Alcotest.test_case "randomized" `Quick test_dsa_signature_randomized;
          Alcotest.test_case "parameters sound" `Quick test_dsa_params_are_sound;
        ] );
      ( "host-words",
        [
          Alcotest.test_case "one warm call, pinned" `Quick test_host_words_pinned;
          Alcotest.test_case "record layer, pinned" `Quick test_record_layer_host_words;
        ] );
      ( "drbg",
        [
          Alcotest.test_case "deterministic" `Quick test_drbg_deterministic;
          Alcotest.test_case "int_below range" `Quick test_drbg_int_below_range;
        ] );
    ]
