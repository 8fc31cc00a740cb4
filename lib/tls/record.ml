module Sha256 = Wedge_crypto.Sha256
module Hmac = Wedge_crypto.Hmac
module Rc4 = Wedge_crypto.Rc4

type keys = {
  mac_tx : bytes;
  mac_rx : bytes;
  enc_tx : Rc4.t;
  mutable enc_rx : Rc4.t;
  mutable seq_tx : int;
  mutable seq_rx : int;
}

let tag_len = 32

(* One context serves all four expansions. *)
let expand ctx master cr sr label =
  Sha256.reset ctx;
  Sha256.update_string ctx label;
  Sha256.update ctx master;
  Sha256.update ctx cr;
  Sha256.update ctx sr;
  Sha256.final ctx

let derive ~master ~client_random ~server_random ~side =
  let ctx = Sha256.init () and m = master and cr = client_random and sr = server_random in
  let mac_c2s = expand ctx m cr sr "mac c2s" in
  let mac_s2c = expand ctx m cr sr "mac s2c" in
  let key_c2s = expand ctx m cr sr "key c2s" in
  let key_s2c = expand ctx m cr sr "key s2c" in
  match side with
  | `Client ->
      {
        mac_tx = mac_c2s;
        mac_rx = mac_s2c;
        enc_tx = Rc4.create ~key:key_c2s;
        enc_rx = Rc4.create ~key:key_s2c;
        seq_tx = 0;
        seq_rx = 0;
      }
  | `Server ->
      {
        mac_tx = mac_s2c;
        mac_rx = mac_c2s;
        enc_tx = Rc4.create ~key:key_s2c;
        enc_rx = Rc4.create ~key:key_c2s;
        seq_tx = 0;
        seq_rx = 0;
      }

(* Sequence numbers travel as 8 big-endian bytes, in the MAC and in the
   state image. *)
let put_seq b off seq =
  for i = 0 to 7 do
    Bytes.set_uint8 b (off + i) ((seq lsr (8 * (7 - i))) land 0xff)
  done

let get_seq b off =
  let seq = ref 0 in
  for i = 0 to 7 do
    seq := (!seq lsl 8) lor Bytes.get_uint8 b (off + i)
  done;
  !seq

let seq_bytes seq =
  let b = Bytes.create 8 in
  put_seq b 0 seq;
  b

let seal k plaintext =
  let n = Bytes.length plaintext in
  let tag = Hmac.mac ~key:k.mac_tx ~prefix:(seq_bytes k.seq_tx) plaintext in
  k.seq_tx <- k.seq_tx + 1;
  let record = Bytes.create (n + tag_len) in
  Rc4.crypt_into k.enc_tx plaintext 0 record 0 n;
  Rc4.crypt_into k.enc_tx tag 0 record n tag_len;
  record

let open_ k record =
  let n = Bytes.length record - tag_len in
  if n < 0 then None
  else begin
    (* Decrypt on a copy of the cipher state, and keep the copy only if
       the MAC holds: a forged record must not desynchronise the stream
       cipher. *)
    let rc4 = Rc4.copy k.enc_rx in
    let pt = Bytes.create n and tag = Bytes.create tag_len in
    Rc4.crypt_into rc4 record 0 pt 0 n;
    Rc4.crypt_into rc4 record n tag 0 tag_len;
    if Hmac.verify ~key:k.mac_rx ~prefix:(seq_bytes k.seq_rx) pt ~tag then begin
      k.seq_rx <- k.seq_rx + 1;
      k.enc_rx <- rc4;
      Some pt
    end
    else None
  end

(* The image: the two 32-byte MAC keys, the two cipher states, the two
   sequence numbers. *)
let off_mac_rx = 32
let off_enc_tx = 64
let off_enc_rx = off_enc_tx + Rc4.state_size
let off_seq_tx = off_enc_rx + Rc4.state_size
let off_seq_rx = off_seq_tx + 8
let state_size = off_seq_rx + 8

let to_bytes k =
  let b = Bytes.create state_size in
  Bytes.blit k.mac_tx 0 b 0 32;
  Bytes.blit k.mac_rx 0 b off_mac_rx 32;
  Rc4.serialize k.enc_tx b off_enc_tx;
  Rc4.serialize k.enc_rx b off_enc_rx;
  put_seq b off_seq_tx k.seq_tx;
  put_seq b off_seq_rx k.seq_rx;
  b

let of_bytes b =
  if Bytes.length b <> state_size then invalid_arg "Record.of_bytes";
  {
    mac_tx = Bytes.sub b 0 32;
    mac_rx = Bytes.sub b off_mac_rx 32;
    enc_tx = Rc4.deserialize b off_enc_tx;
    enc_rx = Rc4.deserialize b off_enc_rx;
    seq_tx = get_seq b off_seq_tx;
    seq_rx = get_seq b off_seq_rx;
  }
