module W = Wedge_core.Wedge
module Kernel = Wedge_kernel.Kernel
module Vfs = Wedge_kernel.Vfs
module Cost_model = Wedge_sim.Cost_model
module Tag = Wedge_mem.Tag
module Rsa = Wedge_crypto.Rsa
module Drbg = Wedge_crypto.Drbg
module Session = Wedge_tls.Session

type t = {
  app : W.app;
  main : W.ctx;
  priv : Rsa.priv;
  key_tag : Tag.t;
  key_addr : int;
  cache : Session.t;
  scache : Sess_store.t;
  rng : Drbg.t;
  mutable served : int;
  worker_sid : string option;
      (* SELinux SID for network-facing sthreads when the strict policy is
         on; [None] reproduces the paper's permissive setup (§5) *)
}

(* ~14 MB image: Apache 1.3 + OpenSSL + loaded modules (vs. the 300-page
   minimal process of the Figure 7 microbenchmarks). *)
let apache_image_pages = 2000

let docroot = "/www"

let index_body =
  let b = Buffer.create 1024 in
  Buffer.add_string b "<html><head><title>wedge-httpd</title></head><body>";
  for i = 1 to 24 do
    Buffer.add_string b (Printf.sprintf "<p>static content line %02d</p>" i)
  done;
  Buffer.add_string b "</body></html>";
  Buffer.contents b

let worker_domain = "httpd_worker_t"

(* The paper grants all system calls via SELinux (§5); [strict_selinux]
   instead locks network-facing sthreads down to the calls they actually
   need, as §3.1 envisages. *)
let configure_strict_selinux kernel =
  let se = kernel.Kernel.selinux in
  Wedge_kernel.Selinux.allow_transition se ~from_:"init_t" ~to_:worker_domain;
  List.iter
    (fun syscall -> Wedge_kernel.Selinux.allow se ~domain:worker_domain ~syscall)
    [ "read"; "write"; "open"; "cgate"; "sthread_join" ]

let install ?(image_pages = apache_image_pages) ?(session_cache = true) ?(strict_selinux = false)
    ?(seed = 0xA9AC4E) kernel =
  let vfs = kernel.Kernel.vfs in
  Vfs.mkdir_p vfs "/var/empty";
  Vfs.mkdir_p vfs docroot;
  Vfs.install vfs ~mode:0o644 (docroot ^ "/index.html") index_body;
  Vfs.install vfs ~mode:0o644 (docroot ^ "/about.html") "<html>about wedge</html>";
  Vfs.install vfs ~mode:0o600 "/etc/shadow" "root:$6$topsecret";
  let app = W.create_app ~image_pages kernel in
  let main = W.main_ctx app in
  W.boot app;
  if strict_selinux then configure_strict_selinux kernel;
  let priv = Rsa.demo_key () in
  let key_tag = W.tag_new ~name:"httpd.privkey" ~pages:1 main in
  let serialized = Rsa.priv_to_string priv in
  let key_addr = W.smalloc main (String.length serialized + 8) key_tag in
  W.write_lv main key_addr serialized;
  let scache = Sess_store.create ~enabled:session_cache main in
  {
    app;
    main;
    priv;
    key_tag;
    key_addr;
    cache = Session.create ~enabled:session_cache ();
    scache;
    rng = Drbg.create ~seed;
    served = 0;
    worker_sid = (if strict_selinux then Some ("system_u:system_r:" ^ worker_domain) else None);
  }

let cert t = Rsa.pub_to_string t.priv.Rsa.pub

let read_priv ctx t =
  match Rsa.priv_of_string (W.read_lv ctx t.key_addr) with
  | Some priv -> priv
  | None -> failwith "httpd: corrupt private key block"

type crypto_op =
  | Rsa_priv
  | Cipher of int
  | Mac

let charge ctx op =
  let cm = (W.kernel (W.app_of ctx)).Kernel.costs in
  let ns =
    match op with
    | Rsa_priv -> cm.Cost_model.rsa_private_op
    | Cipher n -> cm.Cost_model.cipher_per_byte * n
    | Mac -> cm.Cost_model.hmac_fixed
  in
  W.charge_app ctx ns

let handle_request ctx line =
  let cm = (W.kernel (W.app_of ctx)).Kernel.costs in
  W.charge_app ctx cm.Cost_model.http_app_fixed;
  let resp =
    match Http.parse_request line with
    | None -> Http.forbidden
    | Some { Http.meth; path } ->
        if meth <> "GET" then Http.forbidden
        else begin
          (* The caller's filesystem view decides what is reachable: the
             monolithic server (root "/") finds pages under the docroot
             prefix; chrooted workers resolve the bare path inside their
             jail. *)
          match W.vfs_read ctx (docroot ^ path) with
          | Ok body -> Http.ok body
          | Error _ -> (
              match W.vfs_read ctx path with
              | Ok body -> Http.ok body
              | Error _ -> Http.not_found)
        end
  in
  Http.format_response resp

let send_degraded ~server main ep =
  W.stat main (server ^ ".degraded");
  try Wedge_net.Chan.write_string ep (Http.format_response Http.internal_error) with _ -> ()
