let block = 64

(* One context and one pad block per tag: the pad is the ipad for the
   inner hash, then flipped in place to the opad for the outer one. *)
let mac ~key ?(prefix = Bytes.empty) data =
  let key = if Bytes.length key > block then Sha256.digest key else key in
  let pad = Bytes.make block '\x36' in
  for i = 0 to Bytes.length key - 1 do
    Bytes.set_uint8 pad i (Bytes.get_uint8 key i lxor 0x36)
  done;
  let ctx = Sha256.init () in
  Sha256.update ctx pad;
  Sha256.update ctx prefix;
  Sha256.update ctx data;
  let inner = Sha256.final ctx in
  for i = 0 to block - 1 do
    Bytes.set_uint8 pad i (Bytes.get_uint8 pad i lxor (0x36 lxor 0x5c))
  done;
  Sha256.reset ctx;
  Sha256.update ctx pad;
  Sha256.update ctx inner;
  Sha256.final ctx

let verify ~key ?prefix data ~tag =
  let expect = mac ~key ?prefix data in
  Bytes.length tag = Bytes.length expect
  &&
  let diff = ref 0 in
  for i = 0 to Bytes.length expect - 1 do
    diff := !diff lor (Bytes.get_uint8 expect i lxor Bytes.get_uint8 tag i)
  done;
  !diff = 0
