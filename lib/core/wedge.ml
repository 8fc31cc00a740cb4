type app = Engine.app
type ctx = Engine.ctx
type handle = Engine.handle
type gate_id = Engine.gate_id
type spawn = Engine.spawn = Boot | Recycle | Stamp of Pool.t
type where = Engine.where = Master | Child of int

exception Privilege_violation = Engine.Privilege_violation
exception Fd_error = Engine.Fd_error
exception Heap_corruption = Engine.Heap_corruption

let create_app ?image_pages kernel = Engine.create_app ?image_pages kernel
let main_ctx = Engine.main_ctx
let boot = Engine.boot
let kernel = Engine.kernel
let live_tags = Engine.live_tags
let set_tag_cache = Engine.set_tag_cache
let tag_cache_hits = Engine.tag_cache_hits
let tag_cache_misses = Engine.tag_cache_misses
let find_tag_by_addr = Engine.find_tag_by_addr
let app_of = Engine.app_of
let pid = Engine.pid
let getuid = Engine.getuid
let proc = Engine.proc
let sthread_create = Engine.sthread_create
let sthread_join = Engine.sthread_join
let tag_new = Engine.tag_new
let tag_delete = Engine.tag_delete
let smalloc = Engine.smalloc
let sfree = Engine.sfree
let malloc = Engine.malloc
let free = Engine.free
let smalloc_on = Engine.smalloc_on
let smalloc_off = Engine.smalloc_off
let boundary_var = Engine.boundary_var
let boundary_tag = Engine.boundary_tag
let sc_create = Sc.create
let sc_mem_add = Sc.mem_add
let sc_fd_add = Sc.fd_add
let sc_sel_context = Sc.sel_context
let sc_set_uid = Sc.set_uid
let sc_set_root = Sc.set_root
let sc_cgate_add = Engine.sc_cgate_add
let cgate = Engine.cgate
let cgate_delete = Engine.cgate_delete
let fork = Engine.fork
let pthread = Engine.pthread
let set_identity = Engine.set_identity
let read_u8 = Engine.read_u8
let write_u8 = Engine.write_u8
let read_u32 = Engine.read_u32
let write_u32 = Engine.write_u32
let read_u64 = Engine.read_u64
let write_u64 = Engine.write_u64
let read_into = Engine.read_into
let read_bytes = Engine.read_bytes
let write_bytes = Engine.write_bytes
let read_string = Engine.read_string
let write_string = Engine.write_string
let write_lv = Engine.write_lv
let read_lv = Engine.read_lv
let charge_app = Engine.charge_app
let stat = Engine.stat
let trace_instant = Engine.trace_instant
let register_metrics = Engine.register_metrics
let fault_reason = Engine.fault_reason

type tlb_stats = Engine.tlb_stats = {
  tlb_hits : int;
  tlb_misses : int;
  tlb_shootdowns : int;
}

let tlb_stats = Engine.tlb_stats
let set_instr = Engine.set_instr
let instr_of = Engine.instr_of

type policy_check = Engine.policy_check = {
  pol_mem : addr:int -> len:int -> write:bool -> string option;
  pol_fd : fd:int -> write:bool -> string option;
  pol_gate : string -> string option;
}

let set_policy = Engine.set_policy
let in_function = Engine.in_function
let stack_frame = Engine.stack_frame
let add_endpoint = Engine.add_endpoint
let fd_read = Engine.fd_read
let fd_write_sub = Engine.fd_write_sub
let fd_write = Engine.fd_write
let fd_close = Engine.fd_close
let vfs_read = Engine.vfs_read
let vfs_write = Engine.vfs_write
let vfs_readdir = Engine.vfs_readdir
let caller_pid = Engine.caller_pid
let takeover = Engine.takeover

module Pool = Pool
