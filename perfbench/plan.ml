(* Seeded workload generation.  Everything the servers see — the command
   mix, the mailbox contents, the full-vs-resumed schedule and the client
   DRBG seeds — is a pure function of the workload seed; the servers
   receive only the generated connections.

   Mixes are stratified (exact class counts per round, then a seeded
   shuffle) rather than drawn independently, so the tail a run measures
   comes from the workload's shape and not from how many heavy draws one
   seed happened to make. *)

module Rng = Wedge_fault.Rng
module Pop3_env = Wedge_pop3.Pop3_env

type workload = Pop3_churn | Pop3_bulk | Https_mix

let workloads =
  [ ("pop3_churn", Pop3_churn); ("pop3_bulk", Pop3_bulk); ("https_mix", Https_mix) ]

let name w = fst (List.find (fun (_, w') -> w' = w) workloads)
let of_name s = List.assoc_opt s workloads

type pop3_op = Stat | List | Retr_all
type conn = Pop3 of { user : int; op : pop3_op } | Https of { full : bool; rng_seed : int }

(* 16 closed-loop clients, each waiting for its reply before its next
   connection. *)
let clients = 16

(* Connections per client in one round, the unit a plan is stratified
   over. *)
let per_client = function Pop3_churn -> 64 | Pop3_bulk -> 16 | Https_mix -> 16

(* Substream ids under the workload seed. *)
let mailbox_stream = 1
let env_stream = 2
let round_stream r = 1_000 + r
let warmup_stream = 999

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* ---- pop3_bulk mailboxes ---------------------------------------------- *)

let bulk_users = 64

(* The mailbox gate copies each body into a 16,384-byte smalloc block
   behind a 4-byte length prefix, and does not bound-check the copy. *)
let max_mail = 16_380

(* Mailbox totals: a Pareto law taken at the 64 mid-quantiles, scaled so
   the mean mailbox holds 46 KiB (median ~28 KB, largest ~453 KB).  Every
   seed has the same long tail: a uniform mailbox made p50 = p99, and a
   sampled one moves p99 with the seed.  The shape 1.5, the 46 KiB mean
   and the 8 KiB mails below are assumptions, not fitted to a measured
   mail store. *)
let pareto_alpha = 1.5
let mean_total = 46 * 1024

let quantile i =
  (1. -. ((float_of_int i +. 0.5) /. float_of_int bulk_users)) ** (-1. /. pareto_alpha)

let mailbox_total i =
  let mean_quantile =
    List.fold_left ( +. ) 0. (List.init bulk_users quantile) /. float_of_int bulk_users
  in
  int_of_float (float_of_int mean_total *. quantile i /. mean_quantile)

(* Printable text with CRLF line breaks; mails are slices of it. *)
let alphabet = "abcdefghijklmnopqrstuvwxyz ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789.,"

let corpus rng =
  Bytes.init (1 lsl 16) (fun i ->
      if i mod 74 = 72 then '\r'
      else if i mod 74 = 73 then '\n'
      else alphabet.[Rng.int rng (String.length alphabet)])
  |> Bytes.to_string

let mail rng text ~user ~seq size =
  if size > max_mail then invalid_arg "Plan.mail: larger than the mailbox gate's buffer";
  let header = Printf.sprintf "From: peer%d\r\nSubject: bulk %d/%d\r\n\r\n" seq user seq in
  let body = size - String.length header in
  header ^ String.sub text (Rng.int rng (String.length text - body)) body

(* [total] bytes in one mail per started 8 KiB, all of one size give or
   take a byte. *)
let split total =
  let k = (total + 8191) / 8192 in
  List.init k (fun j -> (total / k) + if j < total mod k then 1 else 0)

let bulk_mailboxes ~seed =
  let rng = Rng.create (Rng.derive ~seed mailbox_stream) in
  let text = corpus rng in
  Array.init bulk_users (fun i ->
      {
        Pop3_env.name = Printf.sprintf "user%02d" i;
        uid = 2000 + i;
        password = Printf.sprintf "pw%06d" (Rng.int rng 1_000_000);
        mails = List.mapi (fun j size -> mail rng text ~user:i ~seq:(j + 1) size) (split (mailbox_total i));
      })

let users ~seed = function
  | Pop3_churn -> Array.of_list Pop3_env.default_users
  | Pop3_bulk -> bulk_mailboxes ~seed
  | Https_mix -> [||]

(* ---- connections ------------------------------------------------------ *)

(* Client [c]'s share of a round: connection [i] of the round goes to
   client [i mod clients]. *)
let deal conns =
  Array.init clients (fun c ->
      Array.of_list
        (List.filteri (fun i _ -> i mod clients = c) (Array.to_list conns)))

(* Every client makes one full handshake at a seeded place in every four
   connections, and a quarter of the clients take each place, so the
   number of full handshakes in flight stays even. *)
let https_conns rng ~n_per_client =
  let full = Array.make_matrix clients n_per_client false in
  for b = 0 to (n_per_client / 4) - 1 do
    let order = Array.init clients Fun.id in
    shuffle rng order;
    Array.iteri (fun i c -> full.(c).((4 * b) + (i mod 4)) <- true) order
  done;
  Array.map (Array.map (fun full -> Https { full; rng_seed = Rng.int rng (1 lsl 30) })) full

(* One round: [clients] arrays of [n_per_client] connections each. *)
let round workload ~seed ~n_per_client r =
  let rng = Rng.create (Rng.derive ~seed (round_stream r)) in
  let n = clients * n_per_client in
  match workload with
  | Pop3_churn ->
      (* 90/9/1 STAT / LIST / LIST+RETR-all against alice and bob, from
         the small / medium / large request mix [bench -- scale] maps the
         same way *)
      let op shape =
        match Bench_util.shape_label shape with
        | "small" -> Stat
        | "medium" -> List
        | _ -> Retr_all
      in
      Bench_util.skewed_classes ~seed:(Rng.derive ~seed (round_stream r)) ~n
      |> Array.map (fun shape -> Pop3 { user = Rng.int rng 2; op = op shape })
      |> deal
  | Pop3_bulk ->
      (* every mailbox visited equally often: the round's byte mix is the
         mailbox distribution itself *)
      let users = Array.init n (fun i -> i mod bulk_users) in
      shuffle rng users;
      deal (Array.map (fun user -> Pop3 { user; op = Retr_all }) users)
  | Https_mix ->
      (* per client, a quarter full handshakes; the rest resume *)
      https_conns rng ~n_per_client

(* The warm-up pass: one connection per client, filling the tag cache and
   each client's first TLS session. *)
let warmup workload ~seed =
  let rng = Rng.create (Rng.derive ~seed warmup_stream) in
  Array.init clients (fun c ->
      match workload with
      | Pop3_churn -> [| Pop3 { user = c mod 2; op = Stat } |]
      | Pop3_bulk -> [| Pop3 { user = c mod bulk_users; op = Retr_all } |]
      | Https_mix -> [| Https { full = true; rng_seed = Rng.int rng (1 lsl 30) } |])

let env_seed ~seed = Rng.derive ~seed env_stream
