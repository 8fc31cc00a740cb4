module Chan = Wedge_net.Chan
module Lineio = Wedge_net.Lineio

type t = { io : Lineio.t }

let read_status t =
  match Lineio.read_line t.io with
  | Some line when String.length line >= 3 && String.sub line 0 3 = "+OK" ->
      Some (String.sub line 4 (max 0 (String.length line - 4)))
  | Some _ -> None
  | None -> None

let connect ep =
  let t = { io = Lineio.of_chan ep } in
  ignore (read_status t);
  t

let cmd t line =
  Lineio.write_line t.io line;
  read_status t

let login t ~user ~password =
  match cmd t ("USER " ^ user) with
  | Some _ -> cmd t ("PASS " ^ password) <> None
  | None -> false

let stat t =
  match cmd t "STAT" with
  | Some rest -> (
      match String.split_on_char ' ' (String.trim rest) with
      | n :: total :: _ -> (
          match (int_of_string_opt n, int_of_string_opt total) with
          | Some n, Some total -> Some (n, total)
          | _ -> None)
      | _ -> None)
  | None -> None

let list_mails t =
  match cmd t "LIST" with
  | None -> None
  | Some _ ->
      let rec collect acc =
        match Lineio.read_line t.io with
        | Some "." | None -> Some (List.rev acc)
        | Some line -> (
            match String.split_on_char ' ' line with
            | [ a; b ] -> (
                match (int_of_string_opt a, int_of_string_opt b) with
                | Some a, Some b -> collect ((a, b) :: acc)
                | _ -> collect acc)
            | _ -> collect acc)
      in
      collect []

let retr t n =
  match cmd t (Printf.sprintf "RETR %d" n) with
  | None -> None
  | Some rest -> (
      match String.split_on_char ' ' (String.trim rest) with
      | octets :: _ -> (
          match int_of_string_opt octets with
          | Some len -> (
              (* A length below zero or past the line cap is refused. *)
              match Lineio.read_exact t.io len with
              | Some body ->
                  (* consume the "\r\n.\r\n" terminator *)
                  ignore (Lineio.read_line t.io);
                  ignore (Lineio.read_line t.io);
                  (* [read_exact]'s buffer is fresh and held by no one else. *)
                  Some (Bytes.unsafe_to_string body)
              | None -> None)
          | None -> None)
      | [] -> None)

let dele t n = cmd t (Printf.sprintf "DELE %d" n) <> None

let quit t = ignore (cmd t "QUIT")
