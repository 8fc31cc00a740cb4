module W = Wedge_core.Wedge
module Kernel = Wedge_kernel.Kernel
module Vfs = Wedge_kernel.Vfs
module Tag = Wedge_mem.Tag
module Rsa = Wedge_crypto.Rsa
module Dsa = Wedge_crypto.Dsa
module Drbg = Wedge_crypto.Drbg
module Sha256 = Wedge_crypto.Sha256

type user = {
  name : string;
  uid : int;
  password : string;
  skey_passphrase : string;
  skey_count : int;
  key_seed : int;
}

let default_users =
  [
    {
      name = "alice";
      uid = 1000;
      password = "wonderland";
      skey_passphrase = "rabbit hole";
      skey_count = 50;
      key_seed = 0xA11CE;
    };
    {
      name = "bob";
      uid = 1001;
      password = "builder";
      skey_passphrase = "yes we can";
      skey_count = 20;
      key_seed = 0xB0B;
    };
  ]

type t = {
  app : W.app;
  main : W.ctx;
  host_rsa : Rsa.priv;
  host_dsa : Dsa.priv;
  hostkey_tag : Tag.t;
  rsa_addr : int;
  dsa_addr : int;
  public_tag : Tag.t;
  pub_rsa_addr : int;
  pub_dsa_addr : int;
  config_addr : int;
  rng : Drbg.t;
  users : user list;
}

(* OpenSSH 3.1 is far smaller than Apache+OpenSSL-with-modules. *)
let sshd_image_pages = 900

let shadow_path = "/etc/shadow"
let skey_path = "/etc/skey"

let user_keys : (int, Dsa.priv) Hashtbl.t = Hashtbl.create 8

let user_key u =
  match Hashtbl.find_opt user_keys u.key_seed with
  | Some k -> k
  | None ->
      let k = Dsa.keygen (Drbg.create ~seed:u.key_seed) (Dsa.demo_params ()) in
      Hashtbl.add user_keys u.key_seed k;
      k

let config_text =
  "Protocol wssh-1.0\nPermitRootLogin no\nPasswordAuthentication yes\n\
   PubkeyAuthentication yes\nSkeyAuthentication yes\nPermitEmptyPasswords no\n"

let install ?(image_pages = sshd_image_pages) ?(seed = 0x55DD) kernel =
  let users = default_users in
  let vfs = kernel.Kernel.vfs in
  Vfs.mkdir_p vfs "/var/empty";
  Vfs.mkdir_p vfs ~mode:0o777 "/tmp";
  (* shadow db *)
  let shadow_lines =
    List.map
      (fun u ->
        let salt = "ss" ^ string_of_int u.uid in
        Printf.sprintf "%s:%d:%s:%s" u.name u.uid salt
          (Sha256.hex (Sha256.digest_string (salt ^ u.password))))
      users
  in
  Vfs.install vfs ~uid:0 ~mode:0o600 shadow_path (String.concat "\n" shadow_lines);
  (* per-user home with authorized_keys *)
  List.iter
    (fun u ->
      Vfs.mkdir_p vfs ~uid:u.uid ~mode:0o700 ("/home/" ^ u.name);
      Vfs.mkdir_p vfs ~uid:u.uid ~mode:0o700 ("/home/" ^ u.name ^ "/.ssh");
      Vfs.install vfs ~uid:u.uid ~mode:0o600
        ("/home/" ^ u.name ^ "/.ssh/authorized_keys")
        (Dsa.pub_to_string (user_key u).Dsa.pub ^ "\n"))
    users;
  (* S/Key db *)
  let skey_lines =
    List.map
      (fun u ->
        let seed_str = "sk" ^ string_of_int u.uid in
        Skey.entry_to_line
          {
            Skey.user = u.name;
            seq = u.skey_count;
            seed = seed_str;
            stored = Skey.chain ~passphrase:u.skey_passphrase ~seed:seed_str ~count:u.skey_count;
          })
      users
  in
  Vfs.install vfs ~uid:0 ~mode:0o600 skey_path (String.concat "\n" skey_lines);
  Vfs.install vfs ~mode:0o644 "/etc/sshd_config" config_text;
  let app = W.create_app ~image_pages kernel in
  let main = W.main_ctx app in
  W.boot app;
  let rng = Drbg.create ~seed in
  let host_rsa = Rsa.demo_key () in
  let host_dsa = Dsa.keygen (Drbg.create ~seed:0x4057) (Dsa.demo_params ()) in
  let hostkey_tag = W.tag_new ~name:"sshd.hostkeys" ~pages:1 main in
  let put tag s =
    let a = W.smalloc main (String.length s + 8) tag in
    W.write_lv main a s;
    a
  in
  let rsa_addr = put hostkey_tag (Rsa.priv_to_string host_rsa) in
  let dsa_addr = put hostkey_tag (Dsa.priv_to_string host_dsa) in
  let public_tag = W.tag_new ~name:"sshd.public" ~pages:2 main in
  let pub_rsa_addr = put public_tag (Rsa.pub_to_string host_rsa.Rsa.pub) in
  let pub_dsa_addr = put public_tag (Dsa.pub_to_string host_dsa.Dsa.pub) in
  let config_addr = put public_tag config_text in
  {
    app;
    main;
    host_rsa;
    host_dsa;
    hostkey_tag;
    rsa_addr;
    dsa_addr;
    public_tag;
    pub_rsa_addr;
    pub_dsa_addr;
    config_addr;
    rng;
    users;
  }

let read_host_rsa ctx t =
  match Rsa.priv_of_string (W.read_lv ctx t.rsa_addr) with
  | Some k -> k
  | None -> failwith "sshd: corrupt RSA host key block"

let read_host_dsa ctx t =
  match Dsa.priv_of_string (W.read_lv ctx t.dsa_addr) with
  | Some k -> k
  | None -> failwith "sshd: corrupt DSA host key block"

let lookup_shadow contents ~user =
  String.split_on_char '\n' contents
  |> List.find_opt (fun line ->
         match String.index_opt line ':' with
         | Some i -> String.sub line 0 i = user
         | None -> false)

let find_user t name = List.find_opt (fun u -> u.name = name) t.users
