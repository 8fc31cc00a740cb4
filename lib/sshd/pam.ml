module W = Wedge_core.Wedge
module Sha256 = Wedge_crypto.Sha256

(* Free-list links overwrite the first 16 bytes of a freed chunk's user
   area; the password copy sits past them, so it survives the free. *)
let scratch_offset = 16

let authenticate ctx ~shadow_line ~user ~password =
  (* The bug: working copy of the secret in malloc'd scratch... *)
  let scratch = W.malloc ctx (scratch_offset + 128) in
  W.write_string ctx (scratch + scratch_offset) password;
  let ok =
    match String.split_on_char ':' shadow_line with
    | [ name; _uid; salt; hash ] when name = user ->
        let pw = W.read_string ctx (scratch + scratch_offset) (String.length password) in
        String.equal (Sha256.hex (Sha256.digest_string (salt ^ pw))) hash
    | _ -> false
  in
  (* ...freed without scrubbing. *)
  W.free ctx scratch;
  ok
