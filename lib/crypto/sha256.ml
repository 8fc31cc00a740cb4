(* Plain-int implementation; all word arithmetic is masked to 32 bits. *)

let m32 = 0xffffffff

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1; 0x923f82a4; 0xab1c5ed5;
    0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174;
    0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967;
    0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
    0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
    0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208; 0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

type ctx = {
  h : int array;
  block : bytes;  (* pending partial block *)
  mutable fill : int;  (* bytes pending in [block] *)
  mutable total : int;  (* bytes processed *)
  w : int array;  (* message schedule *)
}

(* Back to the initial hash value, so one context can hash one message
   after another. *)
let reset t =
  let h = t.h in
  h.(0) <- 0x6a09e667;
  h.(1) <- 0xbb67ae85;
  h.(2) <- 0x3c6ef372;
  h.(3) <- 0xa54ff53a;
  h.(4) <- 0x510e527f;
  h.(5) <- 0x9b05688c;
  h.(6) <- 0x1f83d9ab;
  h.(7) <- 0x5be0cd19;
  t.fill <- 0;
  t.total <- 0

let init () =
  let t = { h = Array.make 8 0; block = Bytes.create 64; fill = 0; total = 0; w = Array.make 64 0 } in
  reset t;
  t

let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land m32

let compress t (block : bytes) off =
  let h = t.h and w = t.w in
  for i = 0 to 15 do
    w.(i) <-
      (Char.code (Bytes.get block (off + (4 * i))) lsl 24)
      lor (Char.code (Bytes.get block (off + (4 * i) + 1)) lsl 16)
      lor (Char.code (Bytes.get block (off + (4 * i) + 2)) lsl 8)
      lor Char.code (Bytes.get block (off + (4 * i) + 3))
  done;
  for i = 16 to 63 do
    let s0 = rotr w.(i - 15) 7 lxor rotr w.(i - 15) 18 lxor (w.(i - 15) lsr 3) in
    let s1 = rotr w.(i - 2) 17 lxor rotr w.(i - 2) 19 lxor (w.(i - 2) lsr 10) in
    w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land m32
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    let ch = (!e land !f) lxor (lnot !e land !g) land m32 in
    let t1 = (!hh + s1 + ch + k.(i) + w.(i)) land m32 in
    let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
    let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
    let t2 = (s0 + maj) land m32 in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land m32;
    d := !c;
    c := !b;
    b := !a;
    a := (t1 + t2) land m32
  done;
  h.(0) <- (h.(0) + !a) land m32;
  h.(1) <- (h.(1) + !b) land m32;
  h.(2) <- (h.(2) + !c) land m32;
  h.(3) <- (h.(3) + !d) land m32;
  h.(4) <- (h.(4) + !e) land m32;
  h.(5) <- (h.(5) + !f) land m32;
  h.(6) <- (h.(6) + !g) land m32;
  h.(7) <- (h.(7) + !hh) land m32

(* Whole blocks compress straight from [src]; only a partial block is
   copied into the context. *)
let update t src =
  let len = Bytes.length src in
  t.total <- t.total + len;
  let off = ref 0 in
  while !off < len do
    if t.fill = 0 && len - !off >= 64 then begin
      compress t src !off;
      off := !off + 64
    end
    else begin
      let n = min (len - !off) (64 - t.fill) in
      Bytes.blit src !off t.block t.fill n;
      t.fill <- t.fill + n;
      off := !off + n;
      if t.fill = 64 then begin
        compress t t.block 0;
        t.fill <- 0
      end
    end
  done

(* [update] only reads its argument. *)
let update_string t s = update t (Bytes.unsafe_of_string s)

let final t =
  let bitlen = t.total * 8 in
  Bytes.set t.block t.fill '\x80';
  Bytes.fill t.block (t.fill + 1) (63 - t.fill) '\000';
  if t.fill >= 56 then begin
    compress t t.block 0;
    Bytes.fill t.block 0 56 '\000'
  end;
  for i = 0 to 7 do
    Bytes.set t.block (56 + i) (Char.chr ((bitlen lsr (8 * (7 - i))) land 0xff))
  done;
  compress t t.block 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set out (4 * i) (Char.chr ((t.h.(i) lsr 24) land 0xff));
    Bytes.set out ((4 * i) + 1) (Char.chr ((t.h.(i) lsr 16) land 0xff));
    Bytes.set out ((4 * i) + 2) (Char.chr ((t.h.(i) lsr 8) land 0xff));
    Bytes.set out ((4 * i) + 3) (Char.chr (t.h.(i) land 0xff))
  done;
  out

let digest b =
  let t = init () in
  update t b;
  final t

let digest_string s = digest (Bytes.unsafe_of_string s)

let hex b =
  String.init (2 * Bytes.length b) (fun i ->
      let c = Char.code (Bytes.get b (i / 2)) in
      "0123456789abcdef".[if i land 1 = 0 then c lsr 4 else c land 0xf])
