module W = Wedge_core.Wedge
module Supervisor = Wedge_core.Supervisor
module Process = Wedge_kernel.Process
module Fd_table = Wedge_kernel.Fd_table

type 'env t = {
  name : string;
  main : 'env -> W.ctx;
  reject : string option;
  identity : 'env -> Wedge_core.Sc.t;
  worker : string;
  worker_policy : Supervisor.policy option;
  serve : Supervisor.child option -> 'env -> Guard.conn -> bool;
}

type tree = Supervisor.node * Supervisor.child * Supervisor.child

let pool s env =
  W.Pool.freeze ~name:(s.name ^ "." ^ s.worker)
    ~warm:(fun ctx ->
      let p = W.malloc ctx 64 in
      W.free ctx p)
    (s.main env) (s.identity env)

let listener_policy = Supervisor.policy ~max_restarts:2 ()

let tree ?pool s env =
  let node = Supervisor.node ~name:s.name (s.main env) in
  let listener = Supervisor.child ~policy:listener_policy node ~name:"listener" in
  let restart =
    match pool with Some p -> Supervisor.From_pool p | None -> Supervisor.Fresh
  in
  let worker = Supervisor.child ?policy:s.worker_policy ~restart node ~name:s.worker in
  (node, listener, worker)

let serve_loop ?supervision s env guard listener =
  let supervised = Option.map (fun (_, _, worker) -> worker) supervision in
  let reject _ ep = Option.iter (Chan.write_string ep) s.reject in
  let serve c = Guard.report c ~ok:(s.serve supervised env c) in
  let accept () =
    Guard.accept_loop guard listener ~reject ~serve;
    0
  in
  match supervision with
  | None -> ignore (accept ())
  | Some (_, listener_child, _) -> ignore (Supervisor.run_child_fn listener_child accept)

let serve_sharded s envs front =
  Array.iteri
    (fun i env ->
      Wedge_sim.Fiber.spawn (fun () ->
          serve_loop s env (Shard.front_guard front i) (Shard.front_listener front i)))
    envs

type conn = {
  c_main : W.ctx;
  c_ep : Chan.ep;
  c_guard : Guard.conn option;
  mutable c_tags : Wedge_mem.Tag.t list;  (* newest first *)
  mutable c_fd : int option;
}

let tag conn ~name ~pages =
  let t = W.tag_new ~name ~pages conn.c_main in
  conn.c_tags <- t :: conn.c_tags;
  t

let fd conn =
  let raw_ep =
    match conn.c_guard with Some c -> Guard.endpoint c | None -> Chan.to_endpoint conn.c_ep
  in
  let fd = W.add_endpoint conn.c_main raw_ep Fd_table.perm_rw in
  conn.c_fd <- Some fd;
  fd

type served = { worker_status : Process.status; degraded : bool }

let run_worker ?supervised ?guard ~policy ~degrade main ep setup =
  let conn = { c_main = main; c_ep = ep; c_guard = guard; c_tags = []; c_fd = None } in
  let cleanup () =
    (match conn.c_fd with Some fd -> ( try W.fd_close main fd with _ -> ()) | None -> ());
    Chan.close ep;
    List.iter (fun t -> try W.tag_delete main t with _ -> ()) conn.c_tags
  in
  match setup conn with
  | exception e when W.fault_reason e <> None ->
      let reason = Option.get (W.fault_reason e) in
      degrade ();
      cleanup ();
      { worker_status = Process.Faulted ("setup: " ^ reason); degraded = true }
  | sc, body ->
      let outcome =
        let on_restart = Option.map (fun c () -> Guard.rearm_heart c) guard in
        match supervised with
        | Some child -> Supervisor.run_child_sthread ?on_restart child sc body 0
        | None -> Supervisor.supervise_sthread ~policy main sc body 0
      in
      let served =
        match outcome with
        | Supervisor.Done { value; _ } -> { worker_status = Process.Exited value; degraded = false }
        | Supervisor.Gave_up { last_fault; _ } ->
            degrade ();
            { worker_status = Process.Faulted last_fault; degraded = true }
      in
      cleanup ();
      served
