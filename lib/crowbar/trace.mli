(** cb-log traces: every memory access with a full backtrace, attributed to
    the segment (global / heap allocation / tagged segment / stack frame)
    containing it and the offset within that segment (§4.2). *)

type seg_kind =
  | Global of string       (** a named global variable *)
  | Heap                    (** a malloc'd buffer *)
  | Tagged of int           (** an smalloc'd buffer or tag segment (tag id) *)
  | Stack_frame of string   (** a function's stack frame (function name) *)

type segment = {
  seg_id : int;
  base : int;
  len : int;
  kind : seg_kind;
  label : string option;  (** human-readable name (e.g. the tag's name) *)
  alloc_bt : Backtrace.frame list;  (** backtrace of the original allocation *)
  mutable live : bool;
}

type mode =
  | Read
  | Write

type access = {
  a_addr : int;
  a_len : int;
  a_mode : mode;
  a_bt : Backtrace.frame list;  (** full backtrace of the access *)
  a_seg : segment option;
  a_off : int;  (** offset within the segment (−1 when unattributed) *)
}

type t

val create : unit -> t
val add_segment :
  ?label:string -> t -> base:int -> len:int -> kind:seg_kind -> bt:Backtrace.frame list -> segment

val retire_segment : t -> base:int -> unit

val record : t -> addr:int -> len:int -> mode:mode -> bt:Backtrace.frame list -> unit
val accesses : t -> access array
(** In program order. *)

val access_count : t -> int
val segments : t -> segment list
val seg_kind_to_string : seg_kind -> string
val describe : segment -> string
(** Kind plus label when present: [tag 3 "session key"]. *)

(** {2 On-disk traces}

    cb-log in the paper produces log files that cb-analyze queries offline;
    the same split works here: [save] during the instrumented run, [load]
    in the analysis tool. *)

val save : t -> string -> unit
(** Write the trace to a file (a line-oriented text format: one [S] line
    per segment, one [A] line per access with its backtrace). *)

val load : string -> (t, string) result
(** Read a trace written by {!save}. *)
