module W = Wedge_core.Wedge
module Supervisor = Wedge_core.Supervisor
module Fd_table = Wedge_kernel.Fd_table

type 'env t = {
  name : string;
  main : 'env -> W.ctx;
  reject : string option;
  image : 'env -> W.Pool.t;
  serve : 'env -> Guard.conn -> unit;
}

(* Identity only, and no warm-up: a warmed image would carry the
   template's whole private heap, which these workers never touch, into
   every stamp's page table. *)
let image ~name main identity =
  match W.Pool.find (W.app_of main) name with
  | Some p -> p
  | None -> W.Pool.freeze ~name main identity

let serve_loop s env guard listener =
  let reject _ ep = Option.iter (Chan.write_string ep) s.reject in
  Guard.accept_loop guard listener ~reject ~serve:(s.serve env)

let serve_sharded s envs front =
  Array.iteri
    (fun i env ->
      Wedge_sim.Fiber.spawn (fun () ->
          serve_loop s env (Shard.front_guard front i) (Shard.front_listener front i)))
    envs

type conn = {
  c_main : W.ctx;
  c_spawn : W.spawn;
  c_ep : Chan.ep;
  c_guard : Guard.conn option;
  mutable c_tags : Wedge_mem.Tag.t list;  (* newest first *)
  mutable c_gates : W.gate_id list;
  mutable c_fd : int option;
}

let tag conn ~name ~pages =
  let t = W.tag_new ~name ~pages conn.c_main in
  conn.c_tags <- t :: conn.c_tags;
  t

let gate conn sc ~name ~entry ~cgsc ~trusted =
  let g = W.sc_cgate_add ~spawn:conn.c_spawn conn.c_main sc ~name ~entry ~cgsc ~trusted in
  conn.c_gates <- g :: conn.c_gates;
  g

let fd conn =
  let raw_ep =
    match conn.c_guard with Some c -> Guard.endpoint c | None -> Chan.to_endpoint conn.c_ep
  in
  let fd = W.add_endpoint conn.c_main raw_ep Fd_table.perm_rw in
  conn.c_fd <- Some fd;
  fd

(* The connection's compartments in order, each its address space from
   [spawn] and started only once its predecessor exited 0; a fault
   degrades the connection. *)
let rec run_compartments ~spawn ~degrade main = function
  | [] -> ()
  | (sc, body) :: rest -> (
      match Supervisor.supervise main (fun () -> W.sthread_create ~spawn main sc body 0) with
      | Ok 0 -> run_compartments ~spawn ~degrade main rest
      | Ok _ -> ()
      | Error _ -> degrade ())

let run_worker ?guard ~spawn ~degrade main ep setup =
  let conn =
    {
      c_main = main;
      c_spawn = spawn;
      c_ep = ep;
      c_guard = guard;
      c_tags = [];
      c_gates = [];
      c_fd = None;
    }
  in
  let cleanup () =
    List.iter (W.cgate_delete main) conn.c_gates;
    (match conn.c_fd with Some fd -> ( try W.fd_close main fd with _ -> ()) | None -> ());
    Chan.close ep;
    List.iter (fun t -> try W.tag_delete main t with _ -> ()) conn.c_tags
  in
  (match setup conn with
  | exception e when W.fault_reason e <> None ->
      (* Told apart from a faulted compartment, which degrades the
         connection too. *)
      W.stat main "fault.setup";
      W.trace_instant main "service.setup_fault";
      degrade ()
  | compartments -> run_compartments ~spawn ~degrade main compartments);
  cleanup ()
