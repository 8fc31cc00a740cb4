module W = Wedge_core.Wedge
module Supervisor = Wedge_core.Supervisor
module Process = Wedge_kernel.Process
module Fd_table = Wedge_kernel.Fd_table

type 'env t = {
  name : string;
  main : 'env -> W.ctx;
  reject : string option;
  image : 'env -> W.Pool.t;
  worker : string;
  worker_policy : Supervisor.policy option;
  serve : Supervisor.child option -> 'env -> Guard.conn -> bool;
}

type tree = Supervisor.node * Supervisor.child * Supervisor.child

(* Identity only, and no warm-up: a warmed image would carry the
   template's whole private heap, which these workers never touch, into
   every stamp's page table. *)
let image ~name main identity =
  match W.Pool.find (W.app_of main) name with
  | Some p -> p
  | None -> W.Pool.freeze ~name main identity

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
  let g =
    Wedge_core.Engine.sc_cgate_add ~spawn:conn.c_spawn conn.c_main sc ~name ~entry ~cgsc
      ~trusted
  in
  conn.c_gates <- g :: conn.c_gates;
  g

let fd conn =
  let raw_ep =
    match conn.c_guard with Some c -> Guard.endpoint c | None -> Chan.to_endpoint conn.c_ep
  in
  let fd = W.add_endpoint conn.c_main raw_ep Fd_table.perm_rw in
  conn.c_fd <- Some fd;
  fd

type served = { worker_status : Process.status; degraded : bool }

let served_ok = { worker_status = Process.Exited 0; degraded = false }

(* One compartment: under the tree child, or else flat under [policy],
   its address space from [spawn]. *)
let run_compartment ~supervised ~on_restart ~spawn ~policy main (sc, body) =
  match supervised with
  | Some child -> Supervisor.run_child_sthread ?on_restart child sc body 0
  | None ->
      Supervisor.supervise ~policy main (fun () ->
          match spawn with
          | W.Stamp image -> W.Pool.stamp ~extra:sc main image body 0
          | W.Boot | W.Recycle -> W.sthread_create main sc body 0)

(* The connection's compartments in order, each started only once its
   predecessor exited 0. *)
let rec run_compartments ~supervised ~on_restart ~spawn ~policy ~degrade main = function
  | [] -> served_ok
  | stage :: rest -> (
      match run_compartment ~supervised ~on_restart ~spawn ~policy main stage with
      | Supervisor.Done { value = 0; _ } ->
          run_compartments ~supervised ~on_restart ~spawn ~policy ~degrade main rest
      | Supervisor.Done { value; _ } -> { worker_status = Process.Exited value; degraded = false }
      | Supervisor.Gave_up { last_fault; _ } ->
          degrade ();
          { worker_status = Process.Faulted last_fault; degraded = true })

let run_worker ?supervised ?guard ~spawn ~policy ~degrade main ep setup =
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
  let served =
    match setup conn with
    | exception e when W.fault_reason e <> None ->
        let reason = Option.get (W.fault_reason e) in
        degrade ();
        { worker_status = Process.Faulted ("setup: " ^ reason); degraded = true }
    | compartments ->
        let on_restart = Option.map (fun c () -> Guard.rearm_heart c) guard in
        run_compartments ~supervised ~on_restart ~spawn ~policy ~degrade main compartments
  in
  cleanup ();
  served
