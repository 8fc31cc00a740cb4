(** Process control blocks.  Sthreads are implemented as a variant of
    processes (§4.1): private address space, private fd copies, own uid,
    filesystem root and SELinux SID. *)

type kind =
  | Main      (** the application's original process *)
  | Sthread
  | Cgate     (** an sthread created to run one callgate invocation *)
  | Recycled  (** a long-lived sthread backing a recycled callgate *)
  | Forked    (** full-fork child (the privilege-separation baseline) *)

type status =
  | Running
  | Exited of int
  | Faulted of string

type t = {
  pid : int;
  kind : kind;
  mutable uid : int;
  mutable root : string;  (** filesystem root (chroot) *)
  mutable sid : string;   (** SELinux security identifier *)
  vm : Vm.t;
  fds : Fd_table.t;
  mutable status : status;
}

val kind_to_string : kind -> string
val is_alive : t -> bool
