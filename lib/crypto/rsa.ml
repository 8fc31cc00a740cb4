module B = Bignum

type pub = {
  n : B.t;
  e : B.t;
}

type priv = {
  pub : pub;
  p : B.t;
  q : B.t;
  dp : B.t;
  dq : B.t;
  qinv : B.t;
}

let e_const = B.of_int 65537

let of_primes p q =
  if B.compare p B.two <= 0 || B.compare q B.two <= 0 || B.equal p q then None
  else
    match
      (B.modinv e_const ~m:(B.sub p B.one), B.modinv e_const ~m:(B.sub q B.one), B.modinv q ~m:p)
    with
    | dp, dq, qinv -> Some { pub = { n = B.mul p q; e = e_const }; p; q; dp; dq; qinv }
    | exception Not_found -> None

let keygen ?(bits = 512) rng =
  let half = bits / 2 in
  let rec go () =
    let p = Prime.gen_prime rng ~bits:half in
    let q = Prime.gen_prime rng ~bits:(bits - half) in
    match of_primes p q with Some k -> k | None -> go ()
  in
  go ()

let modulus_bytes pub = (B.num_bits pub.n + 7) / 8

(* Padding: 0x02 || nonzero-random || 0x00 || payload, kept one byte shorter
   than the modulus so the padded value is always < n. *)
let min_pad = 8

let max_payload pub = modulus_bytes pub - 2 - min_pad - 1

let encrypt rng pub msg =
  let k = modulus_bytes pub in
  let mlen = Bytes.length msg in
  if mlen > max_payload pub then invalid_arg "Rsa.encrypt: payload too large";
  let padlen = k - 1 - 2 - mlen in
  let buf = Bytes.create (k - 1) in
  Bytes.set buf 0 '\x02';
  for i = 1 to padlen do
    let rec nz () = match Drbg.byte rng with 0 -> nz () | b -> b in
    Bytes.set buf i (Char.chr (nz ()))
  done;
  Bytes.set buf (padlen + 1) '\x00';
  Bytes.blit msg 0 buf (padlen + 2) mlen;
  let m = B.of_bytes_be buf in
  B.to_bytes_be ~len:k (B.modexp ~base:m ~exp:pub.e ~m:pub.n)

(* x^d mod n by Garner's CRT over the key's own primes, as OpenSSL's
   RSA_eay_mod_exp does: two half-width exponentiations by the key's
   [dp] and [dq], then m = mq + q * (qinv * (mp - mq) mod p), with p
   added to keep the difference non-negative. *)
let private_op priv x =
  let { p; q; dp; dq; qinv; _ } = priv in
  let mp = B.modexp ~base:x ~exp:dp ~m:p in
  let mq = B.modexp ~base:x ~exp:dq ~m:q in
  let diff = B.sub (B.add mp p) (B.rem mq p) in
  B.add mq (B.mul q (B.rem (B.mul qinv diff) p))

let decrypt priv ct =
  let k = modulus_bytes priv.pub in
  let c = B.of_bytes_be ct in
  if B.compare c priv.pub.n >= 0 then None
  else begin
    let m = private_op priv c in
    if B.num_bits m > 8 * (k - 1) then None
    else
    let buf = B.to_bytes_be ~len:(k - 1) m in
    if Bytes.get buf 0 <> '\x02' then None
    else
      (* Find the 0x00 separator after at least min_pad random bytes. *)
      let rec find i =
        if i >= Bytes.length buf then None
        else if Bytes.get buf i = '\x00' then Some i
        else find (i + 1)
      in
      match find 1 with
      | Some sep when sep >= 1 + min_pad ->
          Some (Bytes.sub buf (sep + 1) (Bytes.length buf - sep - 1))
      | _ -> None
  end

let pub_to_string pub = Printf.sprintf "rsa:%s:%s" (B.to_hex pub.e) (B.to_hex pub.n)

let pub_of_string s =
  match String.split_on_char ':' s with
  | [ "rsa"; e; n ] -> (
      match (B.of_hex e, B.of_hex n) with
      | e, n when not (B.is_zero n) -> Some { n; e }
      | _ -> None
      | exception Invalid_argument _ -> None)
  | _ -> None

let priv_to_string priv =
  Printf.sprintf "rsapriv:%s:%s:%s:%s:%s:%s:%s" (B.to_hex priv.pub.e) (B.to_hex priv.pub.n)
    (B.to_hex priv.p) (B.to_hex priv.q) (B.to_hex priv.dp) (B.to_hex priv.dq) (B.to_hex priv.qinv)

(* [x] is the inverse of [a] mod [m], reduced: [x < m] and [x * a mod m = 1]. *)
let inverts a x m = B.compare x m < 0 && B.equal (B.rem (B.mul x a) m) B.one

(* Field by field, in place: [field] parses the hex number from [pos] to
   the next ':' or the end of the block and moves [pos] past it, so after
   the last field [pos] is one past the end exactly when the block has
   as many fields as it should. *)
let priv_of_string s =
  let len = String.length s and pos = ref (String.length "rsapriv:") in
  let rec stop i = if i < len && s.[i] <> ':' then stop (i + 1) else i in
  let field () =
    if !pos > len then raise Exit;
    let e = stop !pos in
    let v = B.of_hex_sub s ~pos:!pos ~len:(e - !pos) in
    pos := e + 1;
    v
  in
  match
    if not (String.starts_with ~prefix:"rsapriv:" s) then raise Exit;
    let e = field () in
    let n = field () in
    let p = field () in
    let q = field () in
    let dp = field () in
    let dq = field () in
    let qinv = field () in
    if !pos <> len + 1 then raise Exit;
    { pub = { n; e }; p; q; dp; dq; qinv }
  with
  | { p; q; dp; dq; qinv; pub = { n; e } } as k
    when B.compare p B.two > 0
         && B.compare q B.two > 0
         && B.equal (B.mul p q) n
         && inverts e dp (B.sub p B.one)
         && inverts e dq (B.sub q B.one)
         && inverts q qinv p ->
      Some k
  | _ -> None
  | exception (Exit | Invalid_argument _) -> None

let demo_key =
  let key = lazy (keygen ~bits:512 (Drbg.create ~seed:0xC0FFEE)) in
  fun () -> Lazy.force key
