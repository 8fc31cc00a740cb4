module Fiber = Wedge_sim.Fiber

type direction =
  | Client_to_server
  | Server_to_client

type t = {
  c2s_log : Buffer.t;
  s2c_log : Buffer.t;
}

let create () = { c2s_log = Buffer.create 1024; s2c_log = Buffer.create 1024 }

let pump src dst log =
  let rec loop () =
    let chunk = Chan.read src 4096 in
    if Bytes.length chunk = 0 then Chan.close dst
    else begin
      Buffer.add_bytes log chunk;
      Chan.write dst chunk;
      loop ()
    end
  in
  (try loop () with Fiber.Deadlock _ -> ())

let splice t ~client_side ~server_side =
  Fiber.spawn (fun () -> pump client_side server_side t.c2s_log);
  Fiber.spawn (fun () -> pump server_side client_side t.s2c_log)

let captured t = function
  | Client_to_server -> Buffer.contents t.c2s_log
  | Server_to_client -> Buffer.contents t.s2c_log
