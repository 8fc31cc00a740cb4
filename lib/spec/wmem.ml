module Instr = Wedge_sim.Instr

type t = {
  data : Bytes.t;
  instr : Instr.t;
  fast : bool;  (* instr is null: skip hook dispatch *)
  mutable brk : int;
}

let create ~instr n =
  { data = Bytes.make n '\000'; instr; fast = Instr.is_null instr; brk = 0 }

let alloc t ~name n =
  let base = (t.brk + 7) land lnot 7 in
  if base + n > Bytes.length t.data then invalid_arg "Wmem.alloc: out of memory";
  t.brk <- base + n;
  if not t.fast then t.instr.Instr.on_alloc base n (Instr.Global name);
  base

let get8 t i =
  if not t.fast then t.instr.Instr.on_access i 1 Instr.Read;
  Char.code (Bytes.unsafe_get t.data i)

let set8 t i v =
  if not t.fast then t.instr.Instr.on_access i 1 Instr.Write;
  Bytes.unsafe_set t.data i (Char.unsafe_chr (v land 0xff))

let get32 t i =
  if not t.fast then t.instr.Instr.on_access i 4 Instr.Read;
  Int32.to_int (Bytes.get_int32_le t.data i)

let set32 t i v =
  if not t.fast then t.instr.Instr.on_access i 4 Instr.Write;
  Bytes.set_int32_le t.data i (Int32.of_int v)

let get64 t i =
  if not t.fast then t.instr.Instr.on_access i 8 Instr.Read;
  Int64.to_int (Bytes.get_int64_le t.data i)

let set64 t i v =
  if not t.fast then t.instr.Instr.on_access i 8 Instr.Write;
  Bytes.set_int64_le t.data i (Int64.of_int v)

let scope t name f =
  if t.fast then f () else Instr.scoped t.instr ~name ~file:"spec" ~line:0 f
