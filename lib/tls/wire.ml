exception Closed
exception Malformed of string

type io = {
  recv : int -> bytes;
  send : bytes -> unit;
}

(* [recv k] returns at most [k] bytes, so nothing is ever left over for
   the next read: a read that arrives whole is returned as it is, a split
   one is filled in place, and an empty one asks for nothing. *)
let io_of_fns ~recv ~send =
  let more k = match recv k with Some b when Bytes.length b > 0 -> b | Some _ | None -> raise Closed in
  let recv_exact n =
    if n = 0 then Bytes.empty
    else
      let first = more n in
      if Bytes.length first = n then first
      else begin
        let out = Bytes.create n in
        let got = ref (Bytes.length first) in
        Bytes.blit first 0 out 0 !got;
        while !got < n do
          let b = more (n - !got) in
          Bytes.blit b 0 out !got (Bytes.length b);
          got := !got + Bytes.length b
        done;
        out
      end
  in
  { recv = recv_exact; send }

type mtype =
  | Client_hello
  | Server_hello
  | Certificate
  | Client_key_exchange
  | Finished
  | App_data
  | Alert

let mtype_to_char = function
  | Client_hello -> 'h'
  | Server_hello -> 'H'
  | Certificate -> 'C'
  | Client_key_exchange -> 'K'
  | Finished -> 'F'
  | App_data -> 'D'
  | Alert -> 'A'

let mtype_of_char = function
  | 'h' -> Some Client_hello
  | 'H' -> Some Server_hello
  | 'C' -> Some Certificate
  | 'K' -> Some Client_key_exchange
  | 'F' -> Some Finished
  | 'D' -> Some App_data
  | 'A' -> Some Alert
  | _ -> None

let frame mtype payload =
  let n = Bytes.length payload in
  if n > 0xffff then invalid_arg "Wire.frame: payload too large";
  let b = Bytes.create (3 + n) in
  Bytes.set b 0 (mtype_to_char mtype);
  Bytes.set b 1 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 2 (Char.chr (n land 0xff));
  Bytes.blit payload 0 b 3 n;
  b

let send_msg io mtype payload = io.send (frame mtype payload)

let recv_msg io =
  let hdr = io.recv 3 in
  let mtype =
    match mtype_of_char (Bytes.get hdr 0) with
    | Some t -> t
    | None -> raise (Malformed (Printf.sprintf "wssl: bad message type %C" (Bytes.get hdr 0)))
  in
  let n = (Char.code (Bytes.get hdr 1) lsl 8) lor Char.code (Bytes.get hdr 2) in
  (mtype, io.recv n)

let parse_frames trace =
  let rec go pos acc =
    if pos + 3 > String.length trace then List.rev acc
    else
      match mtype_of_char trace.[pos] with
      | None -> List.rev acc
      | Some t ->
          let n = (Char.code trace.[pos + 1] lsl 8) lor Char.code trace.[pos + 2] in
          if pos + 3 + n > String.length trace then List.rev acc
          else go (pos + 3 + n) ((t, Bytes.of_string (String.sub trace (pos + 3) n)) :: acc)
  in
  go 0 []
