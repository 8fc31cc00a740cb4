(* The benchmark's clients: the remote users, plain OCaml outside the
   simulated host.  They speak the same wire protocol as
   [Pop3_client] / [Https_client] but check every reply against what the
   world installed, and count the bytes and channel calls they make —
   which the library clients do not expose.  A wrong reply raises
   [Wrong]; the run counts it as a failed connection. *)

module Chan = Wedge_net.Chan
module Lineio = Wedge_net.Lineio
module Pop3_env = Wedge_pop3.Pop3_env
module Handshake = Wedge_tls.Handshake
module Wire = Wedge_tls.Wire
module Http = Wedge_httpd.Http

exception Wrong of string

let wrong fmt = Printf.ksprintf (fun s -> raise (Wrong s)) fmt

type io_counts = { mutable bytes : int; mutable calls : int }

let io_counts () = { bytes = 0; calls = 0 }

let recv counts ep n =
  let b = Chan.read ep n in
  counts.calls <- counts.calls + 1;
  counts.bytes <- counts.bytes + Bytes.length b;
  b

let send counts ep b =
  counts.calls <- counts.calls + 1;
  counts.bytes <- counts.bytes + Bytes.length b;
  Chan.write ep b

(* ---- POP3 ------------------------------------------------------------- *)

let pop3 ?spans counts (user : Pop3_env.user) (op : Plan.pop3_op) ep =
  let within ?bytes ~name f = Spans.within spans ?bytes ~name f in
  let io = Lineio.create ~recv:(recv counts ep) ~send:(send counts ep) () in
  let line () =
    match Lineio.read_line io with Some l -> l | None -> wrong "pop3: early EOF"
  in
  let status () =
    let l = line () in
    if String.length l >= 3 && String.sub l 0 3 = "+OK" then
      String.sub l (min 4 (String.length l)) (max 0 (String.length l - 4))
    else wrong "pop3: %S" l
  in
  let cmd c =
    Lineio.write_line io c;
    status ()
  in
  let expect what got want = if got <> want then wrong "pop3 %s: %S, want %S" what got want in
  let mails = user.Pop3_env.mails in
  let list () =
    expect "LIST" (cmd "LIST") (Printf.sprintf "%d messages" (List.length mails));
    List.iteri
      (fun i m -> expect "LIST entry" (line ()) (Printf.sprintf "%d %d" (i + 1) (String.length m)))
      mails;
    expect "LIST end" (line ()) "."
  in
  let retr i m =
    within ~name:"pop3.retr" ~bytes:(String.length m) (fun () ->
        expect "RETR" (cmd (Printf.sprintf "RETR %d" i)) (Printf.sprintf "%d octets" (String.length m));
        match Lineio.read_exact io (String.length m) with
        | Some b when Bytes.to_string b = m ->
            expect "RETR end" (line ()) "";
            expect "RETR end" (line ()) "."
        | Some _ -> wrong "pop3 RETR %d: body differs from the installed mail" i
        | None -> wrong "pop3 RETR %d: short body" i)
  in
  within ~name:"pop3.connect" (fun () -> ignore (status ()));
  within ~name:"pop3.login" (fun () ->
      ignore (cmd ("USER " ^ user.name));
      expect "PASS" (cmd ("PASS " ^ user.password)) "logged in");
  (match op with
  | Plan.Stat ->
      within ~name:"pop3.stat" (fun () ->
          expect "STAT" (cmd "STAT")
            (Printf.sprintf "%d %d" (List.length mails)
               (List.fold_left (fun a m -> a + String.length m) 0 mails)))
  | Plan.List -> within ~name:"pop3.list" list
  | Plan.Retr_all ->
      within ~name:"pop3.list" list;
      List.iteri (fun i m -> retr (i + 1) m) mails);
  within ~name:"pop3.quit" (fun () -> expect "QUIT" (cmd "QUIT") "bye");
  Chan.close ep

(* ---- HTTPS ------------------------------------------------------------ *)

let request = Http.format_request { Http.meth = "GET"; path = "/index.html" }

(* One GET over a fresh connection, full handshake or resuming [resume];
   returns the session to resume next time. *)
let https ?spans counts ~pinned ~rng ?resume ~expect_body ep =
  let within ?bytes ~name f = Spans.within spans ?bytes ~name f in
  let io =
    Wire.io_of_fns
      ~recv:(fun n ->
        let b = recv counts ep n in
        if Bytes.length b = 0 then None else Some b)
      ~send:(send counts ep)
  in
  let res =
    within ~name:"tls.handshake" (fun () ->
        match Handshake.client_connect ?resume ~rng ~pinned io with
        | Ok r -> r
        | Error e -> wrong "https handshake: %s" e)
  in
  if res.Handshake.cr_resumed <> Option.is_some resume then
    wrong "https: planned %s, server did %s"
      (if resume = None then "full" else "resumed")
      (if res.Handshake.cr_resumed then "resumed" else "full");
  within ~name:"http.get" (fun () ->
      let keys = res.Handshake.cr_keys in
      Handshake.send_data io keys (Bytes.of_string request);
      let buf = Buffer.create 1024 in
      let rec collect () =
        match Handshake.recv_data io keys with
        | Ok b -> (
            Buffer.add_bytes buf b;
            match Http.parse_response (Buffer.contents buf) with
            | Some r when String.length r.Http.body >= String.length expect_body -> r
            | _ -> collect ())
        | Error `Mac_fail -> wrong "https: MAC failure"
        | Error (`Eof | `Alert) -> (
            match Http.parse_response (Buffer.contents buf) with
            | Some r -> r
            | None -> wrong "https: connection ended before a response")
      in
      let r = collect () in
      if r.Http.status <> 200 then wrong "https: status %d" r.Http.status;
      if r.Http.body <> expect_body then wrong "https: body differs from index.html");
  Chan.close ep;
  res.Handshake.cr_session
