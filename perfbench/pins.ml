(* What the benchmark was defined against: the seeds it records and every
   [Cost_model.default] field.  A run whose cost model differs from
   [costs] refuses to report, so an edited constant cannot pass as a
   simulated-time gain.  The literal below and [cost_fields]' pattern
   both name every field, so a new [Cost_model] field does not compile
   here until it is pinned. *)

module Cost_model = Wedge_sim.Cost_model

(* The seed a run uses when none is given. *)
let default_seed = 1

(* Kept out of tuning: confirm a claimed gain on it too. *)
let held_out_seed = 20261016

(* Simulated ns. *)
let costs =
  {
    Cost_model.syscall_trap = 500;
    syscall_batch_op = 50;
    context_switch = 1_500;
    tlb_flush = 1_000;
    tlb_hit = 1;
    tlb_miss = 40;
    tlb_shootdown = 400;
    pte_copy = 190;
    pool_stamp = 950;
    fd_dup = 250;
    page_alloc = 25;
    page_copy = 800;
    page_scrub = 450;
    thread_struct = 4_000;
    proc_struct = 3_000;
    malloc_op = 50;
    smalloc_book_init = 160;
    mmap_op = 1_050;
    futex_op = 1_000;
    cgate_validate = 1_200;
    sha256_per_byte = 8;
    cipher_per_byte = 10;
    hmac_fixed = 900;
    rsa_private_op = 3_200_000;
    rsa_public_op = 160_000;
    net_rtt = 120_000;
    net_per_byte = 9;
    disk_per_byte = 2;
    http_app_fixed = 760_000;
    ssh_login_fixed = 140_000_000;
  }

let cost_fields
    {
      Cost_model.syscall_trap;
      syscall_batch_op;
      context_switch;
      tlb_flush;
      tlb_hit;
      tlb_miss;
      tlb_shootdown;
      pte_copy;
      pool_stamp;
      fd_dup;
      page_alloc;
      page_copy;
      page_scrub;
      thread_struct;
      proc_struct;
      malloc_op;
      smalloc_book_init;
      mmap_op;
      futex_op;
      cgate_validate;
      sha256_per_byte;
      cipher_per_byte;
      hmac_fixed;
      rsa_private_op;
      rsa_public_op;
      net_rtt;
      net_per_byte;
      disk_per_byte;
      http_app_fixed;
      ssh_login_fixed;
    } =
  [
    ("syscall_trap", syscall_trap);
    ("syscall_batch_op", syscall_batch_op);
    ("context_switch", context_switch);
    ("tlb_flush", tlb_flush);
    ("tlb_hit", tlb_hit);
    ("tlb_miss", tlb_miss);
    ("tlb_shootdown", tlb_shootdown);
    ("pte_copy", pte_copy);
    ("pool_stamp", pool_stamp);
    ("fd_dup", fd_dup);
    ("page_alloc", page_alloc);
    ("page_copy", page_copy);
    ("page_scrub", page_scrub);
    ("thread_struct", thread_struct);
    ("proc_struct", proc_struct);
    ("malloc_op", malloc_op);
    ("smalloc_book_init", smalloc_book_init);
    ("mmap_op", mmap_op);
    ("futex_op", futex_op);
    ("cgate_validate", cgate_validate);
    ("sha256_per_byte", sha256_per_byte);
    ("cipher_per_byte", cipher_per_byte);
    ("hmac_fixed", hmac_fixed);
    ("rsa_private_op", rsa_private_op);
    ("rsa_public_op", rsa_public_op);
    ("net_rtt", net_rtt);
    ("net_per_byte", net_per_byte);
    ("disk_per_byte", disk_per_byte);
    ("http_app_fixed", http_app_fixed);
    ("ssh_login_fixed", ssh_login_fixed);
  ]

(* The fields of [c] that differ from [costs], as "name = v, pinned p". *)
let cost_mismatches c =
  List.filter_map
    (fun ((f, p), (_, v)) ->
      if v = p then None else Some (Printf.sprintf "%s = %d, pinned %d" f v p))
    (List.combine (cost_fields costs) (cost_fields c))
