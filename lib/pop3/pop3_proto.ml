module Lineio = Wedge_net.Lineio

type command =
  | User of string
  | Pass of string
  | Stat
  | List
  | Retr of int
  | Dele of int
  | Quit
  | Unknown of string

let parse line =
  let line = String.trim line in
  let upper = String.uppercase_ascii in
  match String.index_opt line ' ' with
  | None -> (
      match upper line with
      | "STAT" -> Stat
      | "LIST" -> List
      | "QUIT" -> Quit
      | _ -> Unknown line)
  | Some i -> (
      let cmd = upper (String.sub line 0 i) in
      let arg = String.sub line (i + 1) (String.length line - i - 1) in
      match cmd with
      | "USER" -> User arg
      | "PASS" -> Pass arg
      | "RETR" -> ( match int_of_string_opt arg with Some n -> Retr n | None -> Unknown line)
      | "DELE" -> ( match int_of_string_opt arg with Some n -> Dele n | None -> Unknown line)
      | _ -> Unknown line)

type refusal = Unauthenticated | No_such_message | Too_large

type backend = {
  login : user:string -> password:string -> bool;
  stat : unit -> (int * int, refusal) result;
  list_mails : unit -> ((int * int) list, refusal) result;
  retr : int -> (string, refusal) result;
  dele : int -> (unit, refusal) result;
}

let refusal_text = function
  | Unauthenticated -> "not authenticated"
  | No_such_message -> "no such message"
  | Too_large -> "reply too large"

(* One reply, one write: the client that finds the channel empty
   partway through a reply pays a half round trip to wait for the rest,
   so a reply split over k writes can cost it k - 1 of them.  [parts]
   are sized first, then blitted once into the outgoing buffer. *)
let write_reply io parts =
  let buf = Bytes.create (List.fold_left (fun n p -> n + String.length p) 0 parts) in
  ignore
    (List.fold_left
       (fun off p ->
         Bytes.blit_string p 0 buf off (String.length p);
         off + String.length p)
       0 parts);
  Lineio.write io buf

let serve io backend =
  let ok fmt = Printf.ksprintf (fun s -> write_reply io [ "+OK "; s; "\r\n" ]) fmt in
  let err fmt = Printf.ksprintf (fun s -> write_reply io [ "-ERR "; s; "\r\n" ]) fmt in
  let refused r = err "%s" (refusal_text r) in
  ok "wedge-pop3 ready";
  let pending_user = ref None in
  let rec loop () =
    match Lineio.read_line io with
    | None ->
        (* An overlong command poisoned the stream: tell the client why
           before the close, instead of silently hanging up. *)
        if Lineio.overflowed io then err "command line too long"
    | Some line -> (
        match parse line with
        | Quit ->
            ok "bye";
            ()
        | User u ->
            pending_user := Some u;
            ok "send PASS";
            loop ()
        | Pass p ->
            (match !pending_user with
            | None -> err "USER first"
            | Some u -> if backend.login ~user:u ~password:p then ok "logged in" else err "auth failed");
            loop ()
        | Stat ->
            (match backend.stat () with
            | Ok (n, bytes) -> ok "%d %d" n bytes
            | Error r -> refused r);
            loop ()
        | List ->
            (match backend.list_mails () with
            | Ok entries ->
                write_reply io
                  (Printf.sprintf "+OK %d messages\r\n" (Stdlib.List.length entries)
                  :: Stdlib.List.fold_right
                       (fun (i, sz) rest -> Printf.sprintf "%d %d\r\n" i sz :: rest)
                       entries [ ".\r\n" ])
            | Error r -> refused r);
            loop ()
        | Retr n ->
            (match backend.retr n with
            | Ok body ->
                write_reply io
                  [ Printf.sprintf "+OK %d octets\r\n" (String.length body); body; "\r\n.\r\n" ]
            | Error r -> refused r);
            loop ()
        | Dele n ->
            (match backend.dele n with Ok () -> ok "deleted" | Error r -> refused r);
            loop ()
        | Unknown _ ->
            err "unknown command";
            loop ())
  in
  loop ()
