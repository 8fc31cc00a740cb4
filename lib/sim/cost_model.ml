type t = {
  syscall_trap : int;
  syscall_batch_op : int;
  context_switch : int;
  tlb_flush : int;
  tlb_hit : int;
  tlb_miss : int;
  tlb_shootdown : int;
  pte_copy : int;
  pool_stamp : int;
  fd_dup : int;
  page_alloc : int;
  page_copy : int;
  page_scrub : int;
  thread_struct : int;
  proc_struct : int;
  malloc_op : int;
  smalloc_book_init : int;
  mmap_op : int;
  futex_op : int;
  cgate_validate : int;
  sha256_per_byte : int;
  cipher_per_byte : int;
  hmac_fixed : int;
  rsa_private_op : int;
  rsa_public_op : int;
  net_rtt : int;
  net_per_byte : int;
  disk_per_byte : int;
  http_app_fixed : int;
  ssh_login_fixed : int;
}

(* Calibration notes (see EXPERIMENTS.md):
   - pthread create+exit+join = 2 traps + thread struct + 2 switches ~ 8 us.
   - a minimal process image is ~300 pages, so fork ~ 300 PTE copies
     + proc struct + 2 switches + TLB flush ~ 65 us, and an sthread with an
     empty policy maps the same pristine image ~ 60 us.
   - tag_new with free-list reuse = bookkeeping prefill only ~ 4x malloc;
     a cold tag pays the full mmap ~ 22x malloc (Figure 8).
   - rsa_private_op matches the ~3.2 ms gap between cached and non-cached
     vanilla Apache rows of Table 2 on the 2.2 GHz Opteron.
   - tlb_hit ~ one cycle of address translation on the fast path; tlb_miss
     ~ a hardware page-table walk; tlb_shootdown ~ the cost of killing one
     cached translation on a permissions change or unmap (the IPI-and-wait
     a real multiprocessor pays, scaled to one entry).
   - syscall_batch_op: nothing charges it (every descriptor read or
     write is one kernel entry at syscall_trap); it stays because the
     benchmark's cost-model pins name every field. *)
let default =
  {
    syscall_trap = 500;
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

let free =
  {
    syscall_trap = 0;
    syscall_batch_op = 0;
    context_switch = 0;
    tlb_flush = 0;
    tlb_hit = 0;
    tlb_miss = 0;
    tlb_shootdown = 0;
    pte_copy = 0;
    pool_stamp = 0;
    fd_dup = 0;
    page_alloc = 0;
    page_copy = 0;
    page_scrub = 0;
    thread_struct = 0;
    proc_struct = 0;
    malloc_op = 0;
    smalloc_book_init = 0;
    mmap_op = 0;
    futex_op = 0;
    cgate_validate = 0;
    sha256_per_byte = 0;
    cipher_per_byte = 0;
    hmac_fixed = 0;
    rsa_private_op = 0;
    rsa_public_op = 0;
    net_rtt = 0;
    net_per_byte = 0;
    disk_per_byte = 0;
    http_app_fixed = 0;
    ssh_login_fixed = 0;
  }
