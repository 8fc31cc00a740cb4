module Kernel = Wedge_kernel.Kernel
module Vfs = Wedge_kernel.Vfs
module Sha256 = Wedge_crypto.Sha256

type user = {
  name : string;
  uid : int;
  password : string;
  mails : string list;
}

let default_users =
  [
    {
      name = "alice";
      uid = 1000;
      password = "wonderland";
      mails =
        [
          "From: bob\r\nSubject: lunch\r\n\r\nNoon at the usual place?";
          "From: bank\r\nSubject: statement\r\n\r\nYour balance is 42.";
        ];
    };
    {
      name = "bob";
      uid = 1001;
      password = "builder";
      mails = [ "From: alice\r\nSubject: re: lunch\r\n\r\nSure." ];
    };
  ]

let passwd_path = "/etc/pop3.passwd"
let maildir name = "/var/mail/" ^ name

let hash_password ~salt pw = Sha256.hex (Sha256.digest_string (salt ^ pw))

let install k users =
  let vfs = k.Kernel.vfs in
  Vfs.mkdir_p vfs "/var/empty";
  let lines =
    List.map
      (fun u ->
        let salt = "s" ^ string_of_int u.uid in
        Printf.sprintf "%s:%d:%s:%s" u.name u.uid salt (hash_password ~salt u.password))
      users
  in
  Vfs.install vfs ~uid:0 ~mode:0o600 passwd_path (String.concat "\n" lines);
  List.iter
    (fun u ->
      Vfs.mkdir_p vfs ~uid:u.uid ~mode:0o700 (maildir u.name);
      List.iteri
        (fun i m ->
          Vfs.install vfs ~uid:u.uid ~mode:0o600
            (Printf.sprintf "%s/%d.eml" (maildir u.name) (i + 1))
            m)
        u.mails)
    users

(* The first line whose name field — everything before its first ':' —
   is [user], found by scanning line starts for [user ^ ":"] in place:
   only the matching line is copied.  A name holding ':' or '\n' names
   no field. *)
let lookup_line ~passwd_file:s ~user =
  let n = String.length s and k = String.length user in
  let rec eol i = if i < n && s.[i] <> '\n' then eol (i + 1) else i in
  let rec named i j = j = k || (s.[i + j] = user.[j] && named i (j + 1)) in
  let rec line i =
    if i + k < n && s.[i + k] = ':' && named i 0 then Some (String.sub s i (eol i - i))
    else
      let e = eol i in
      if e < n then line (e + 1) else None
  in
  if String.contains user ':' || String.contains user '\n' then None else line 0

let check_password ~passwd_line ~user ~password =
  match String.split_on_char ':' passwd_line with
  | [ name; uid; salt; hash ] when name = user ->
      if String.equal (hash_password ~salt password) hash then int_of_string_opt uid else None
  | _ -> None
