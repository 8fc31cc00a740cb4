type t = {
  s : bytes;  (* 256-byte permutation *)
  mutable i : int;
  mutable j : int;
}

(* The key schedule reads key byte [i mod klen] at step [i], through a
   counter that wraps at the key's end rather than a division per step. *)
let create ~key =
  let klen = Bytes.length key in
  if klen = 0 then invalid_arg "Rc4.create: empty key";
  let s = Bytes.create 256 in
  for i = 0 to 255 do
    Bytes.set_uint8 s i i
  done;
  let j = ref 0 and ki = ref 0 in
  for i = 0 to 255 do
    let si = Bytes.get_uint8 s i in
    j := (!j + si + Bytes.get_uint8 key !ki) land 0xff;
    Bytes.set_uint8 s i (Bytes.get_uint8 s !j);
    Bytes.set_uint8 s !j si;
    ki := if !ki = klen - 1 then 0 else !ki + 1
  done;
  { s; i = 0; j = 0 }

let crypt_into t src src_off dst dst_off len =
  if len < 0 || src_off < 0 || src_off > Bytes.length src - len || dst_off < 0
     || dst_off > Bytes.length dst - len
  then invalid_arg "Rc4.crypt_into";
  let s = t.s in
  let i = ref t.i and j = ref t.j in
  for n = 0 to len - 1 do
    i := (!i + 1) land 0xff;
    let si = Bytes.get_uint8 s !i in
    j := (!j + si) land 0xff;
    let sj = Bytes.get_uint8 s !j in
    Bytes.set_uint8 s !i sj;
    Bytes.set_uint8 s !j si;
    let ks = Bytes.get_uint8 s ((si + sj) land 0xff) in
    Bytes.set_uint8 dst (dst_off + n) (Bytes.get_uint8 src (src_off + n) lxor ks)
  done;
  t.i <- !i;
  t.j <- !j

let copy t = { s = Bytes.copy t.s; i = t.i; j = t.j }

let state_size = 258

let serialize t b off =
  if off < 0 || off > Bytes.length b - state_size then invalid_arg "Rc4.serialize";
  Bytes.blit t.s 0 b off 256;
  Bytes.set_uint8 b (off + 256) t.i;
  Bytes.set_uint8 b (off + 257) t.j

let deserialize b off =
  if off < 0 || off > Bytes.length b - state_size then invalid_arg "Rc4.deserialize";
  { s = Bytes.sub b off 256; i = Bytes.get_uint8 b (off + 256); j = Bytes.get_uint8 b (off + 257) }
