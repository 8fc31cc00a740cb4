type t = { mutable now : int }

let create () = { now = 0 }
let charge t ns = t.now <- t.now + ns
let now t = t.now
