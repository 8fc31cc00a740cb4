(** Deterministic cost model for the simulated machine.

    Every simulated kernel, memory and crypto operation charges a number of
    simulated nanoseconds to the kernel's {!Clock}.  The constants below are
    structural — a primitive's cost is assembled from traps, per-PTE copies,
    per-fd duplications, context switches and so on — so the {e ratios} the
    paper reports (Figures 7 and 8, Table 2) emerge from the structure of the
    operations rather than being hard-coded per benchmark row.  Default
    values are calibrated once, against the microbenchmark hardware of the
    paper (§6), and then reused unchanged by every experiment. *)

type t = {
  syscall_trap : int;  (** kernel entry/exit for one system call *)
  syscall_batch_op : int;
      (** the price of each operation past the first in one vectored
          batch.  Nothing charges it: every descriptor read or write is
          one kernel entry priced at [syscall_trap].  It stays only
          because the benchmark's cost-model pins name every field. *)
  context_switch : int;  (** scheduler switch between two processes *)
  tlb_flush : int;  (** address-space switch penalty *)
  tlb_hit : int;  (** one translation served from the software TLB *)
  tlb_miss : int;  (** a page-table walk filling a TLB entry *)
  tlb_shootdown : int;  (** invalidating one cached translation on revoke *)
  pte_copy : int;  (** copying one page-table entry into a child *)
  pool_stamp : int;
      (** stamping a child from a frozen snapshot image: one page-table
          root install, independent of how many pages the image holds *)
  fd_dup : int;  (** duplicating one file descriptor *)
  page_alloc : int;  (** allocating a zeroed physical frame *)
  page_copy : int;  (** copying a 4 KiB frame (COW break) *)
  page_scrub : int;  (** scrubbing a 4 KiB frame on tag reuse *)
  thread_struct : int;  (** pthread-style thread bookkeeping *)
  proc_struct : int;  (** process (sthread) bookkeeping *)
  malloc_op : int;  (** one malloc/smalloc/free *)
  smalloc_book_init : int;  (** initialising allocator bookkeeping in a tag *)
  mmap_op : int;  (** one anonymous mmap (fresh tag segment) *)
  futex_op : int;  (** one futex wake or wait *)
  cgate_validate : int;  (** kernel-side callgate permission validation *)
  sha256_per_byte : int;  (** hashing, per byte *)
  cipher_per_byte : int;  (** symmetric encryption, per byte *)
  hmac_fixed : int;  (** fixed HMAC setup cost per record *)
  rsa_private_op : int;  (** one RSA private-key operation *)
  rsa_public_op : int;  (** one RSA public-key operation *)
  net_rtt : int;  (** one network round trip between peers *)
  net_per_byte : int;  (** wire transfer, per byte *)
  disk_per_byte : int;  (** VFS file read/write, per byte *)
  http_app_fixed : int;  (** application-level work to serve one request *)
  ssh_login_fixed : int;  (** fixed client+server compute per SSH login *)
}

val default : t
(** Calibrated against the paper's testbeds (2.2 GHz Opteron for Apache,
    2.66 GHz Xeon for microbenchmarks); see EXPERIMENTS.md for the
    calibration derivation. *)

val free : t
(** All-zero model, for tests that want functional behaviour only. *)
