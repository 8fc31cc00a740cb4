type frame = {
  fn : string;
  file : string;
  line : int;
}

type t = { mutable stack : frame list }

let create () = { stack = [] }
let push t f = t.stack <- f :: t.stack

let pop t =
  match t.stack with
  | [] -> invalid_arg "Backtrace.pop: empty stack"
  | _ :: rest -> t.stack <- rest

let current t = t.stack
let frame_to_string f = Printf.sprintf "%s (%s:%d)" f.fn f.file f.line
