exception Closed
exception Malformed of string

type io = {
  recv : int -> bytes;
  send : bytes -> unit;
}

let io_of_fns ~recv ~send =
  let buf = Buffer.create 256 in
  let recv_exact n =
    while Buffer.length buf < n do
      match recv (n - Buffer.length buf) with
      | Some b when Bytes.length b > 0 -> Buffer.add_bytes buf b
      | Some _ | None -> raise Closed
    done;
    let all = Buffer.to_bytes buf in
    let out = Bytes.sub all 0 n in
    Buffer.clear buf;
    Buffer.add_subbytes buf all n (Bytes.length all - n);
    out
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
