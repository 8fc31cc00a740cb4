(* Sharded multi-kernel fabric: N independent simulated kernels — each
   with its own physical memory, page tables, fd space, clock and
   reactor — stitched into one cluster by directed cross-shard channels.

   A shard is a machine: its clock advances independently (that is the
   whole point of scaling out — N shards serve N connection streams in
   parallel simulated time), its reactor parks its own fibers, and its
   invariant oracle sweeps its own kernel.  The one global fact the
   fabric must preserve is PR 3's revocation invariant: deleting a tag
   revokes it *everywhere*.  A global tag ([gtag]) is replicated on
   every shard — the multikernel take on a shared memory grant — and
   deleting any replica runs the cross-shard TLB-shootdown protocol:

     1. the deleting shard finishes its local revocation (every local
        address space unmapped, local TLBs shot down — [Engine.tag_delete]
        already does this) and the engine's [on_tag_delete] hook fires;
     2. the fabric marks the gtag dead, charges one [tlb_shootdown] per
        peer (the IPI send), and posts a shootdown request on the link
        to every peer shard;
     3. each peer's link handler — a fiber parked on its link —
        services the request: bumps [tlb.cross_shard_shootdown],
        charges the IPI, deletes its local replica (a full local
        revocation on that kernel), and acks;
     4. the deleter parks until every ack is in, then returns — exactly
        the synchronous shootdown contract a real multikernel completes
        before reusing the frames.

   Determinism: links are plain simulated channels, handlers wake in
   fiber-id order, peers are always walked in ascending shard id, and
   every charge comes from the cost model — so shootdown traces and
   exploration digests are pure functions of the schedule.

   One host runs the whole cluster: the single cooperative [Fiber]
   scheduler multiplexes every shard's fibers (it is a global singleton
   by design), so "per-shard scheduler" here means per-shard reactor
   (timers) + clock, not N OS threads.  [hook]/[idle] wire the
   whole fabric into one [Fiber.run]. *)

module Kernel = Wedge_kernel.Kernel
module Clock = Wedge_sim.Clock
module Cost_model = Wedge_sim.Cost_model
module Stats = Wedge_sim.Stats
module Fiber = Wedge_sim.Fiber
module Interest = Wedge_sim.Fiber.Interest
module Reactor = Wedge_sim.Reactor
module Tag = Wedge_mem.Tag
module Engine = Wedge_core.Engine
module W = Wedge_core.Wedge

type shard = {
  sid : int;
  kernel : Kernel.t;
  app : Engine.app;
  reactor : Reactor.t;
}

type gtag = {
  g_gid : int;
  g_replicas : Tag.t array;  (* index = shard id *)
  mutable g_live : bool;
      (* flipped off the moment a delete starts — the gtag is logically
         dead cluster-wide before the first shootdown is even posted *)
  mutable g_pending : int;  (* shootdown acks still outstanding *)
}

type t = {
  shards : shard array;
  links_out : Chan.ep option array array;
      (* links_out.(i).(j): shard i's send end of the directed i->j
         link: each ordered pair gets its own channel, read only by
         shard j's handler for shard i *)
  links_in : Chan.ep option array array;
      (* links_in.(j).(i): shard j's receive end of the i->j link *)
  mutable next_gid : int;
  gtags : (int, gtag) Hashtbl.t;  (* gid -> gtag *)
  by_replica : (int * int, int) Hashtbl.t;  (* (sid, local tag id) -> gid *)
  mutable relaying : bool;
      (* a link handler is applying a remote shootdown: its local
         [Engine.tag_delete] must not re-broadcast (the scheduler is
         cooperative and the delete does not yield, so one flag is a
         sound re-entrancy guard) *)
  mutable handlers : int;  (* live link-handler fibers *)
  acked : Interest.t;  (* signalled at every shootdown ack *)
  retired : Interest.t;  (* signalled when a link handler retires *)
  mutable started : bool;
  mutable stopping : bool;
  tick : unit -> unit;
      (* [hook]: every shard's reactor tick, composed once here because
         a run calls it at every scheduling switch *)
}

let n t = Array.length t.shards
let shards t = t.shards
let shard t sid = t.shards.(sid)
let reactors t = Array.to_list (Array.map (fun s -> s.reactor) t.shards)

(* ------------------------------------------------------------------ *)
(* Wire format: 1 opcode byte + 4-byte big-endian gid                  *)

let msg_bytes = 5

let encode op gid =
  let b = Bytes.create msg_bytes in
  Bytes.set b 0 op;
  Bytes.set b 1 (Char.chr ((gid lsr 24) land 0xff));
  Bytes.set b 2 (Char.chr ((gid lsr 16) land 0xff));
  Bytes.set b 3 (Char.chr ((gid lsr 8) land 0xff));
  Bytes.set b 4 (Char.chr (gid land 0xff));
  b

let decode_gid b =
  (Char.code (Bytes.get b 1) lsl 24)
  lor (Char.code (Bytes.get b 2) lsl 16)
  lor (Char.code (Bytes.get b 3) lsl 8)
  lor Char.code (Bytes.get b 4)

let link_out t i j =
  match t.links_out.(i).(j) with
  | Some ep -> ep
  | None -> invalid_arg "Shard: no link between these shards"

let send t ~from ~to_ op gid = ignore (Chan.write (link_out t from to_) (encode op gid))

(* ------------------------------------------------------------------ *)
(* The shootdown broadcast (the deleting side)                         *)

let broadcast_delete t (s : shard) gid =
  let g = Hashtbl.find t.gtags gid in
  if g.g_live then begin
    g.g_live <- false;
    let peers = n t - 1 in
    g.g_pending <- peers;
    if peers > 0 then begin
      if not t.started then
        invalid_arg "Shard: gtag delete with link handlers not started";
      let costs = s.kernel.Kernel.costs in
      for j = 0 to n t - 1 do
        if j <> s.sid then begin
          (* One IPI per peer, charged to the revoking shard. *)
          Clock.charge s.kernel.Kernel.clock costs.Cost_model.tlb_shootdown;
          send t ~from:s.sid ~to_:j 'S' gid
        end
      done;
      (* The synchronous contract: the delete does not return until
         every peer has revoked and acked. *)
      Interest.wait t.acked ~what:"cross-shard shootdown acks" ~ready:(fun () ->
          g.g_pending = 0)
    end
  end

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let create worlds =
  if Array.length worlds = 0 then invalid_arg "Shard.create: no shards";
  let shards =
    Array.mapi
      (fun sid (kernel, app) ->
        { sid; kernel; app; reactor = Reactor.create ~clock:kernel.Kernel.clock () })
      worlds
  in
  let m = Array.length shards in
  let links_out = Array.make_matrix m m None in
  let links_in = Array.make_matrix m m None in
  for i = 0 to m - 1 do
    for j = 0 to m - 1 do
      if i <> j then begin
        (* The link is free of channel charges: the protocol charges the
           cost model's [tlb_shootdown] explicitly on each side, so the
           price of a shootdown is one knob, not a sum of hidden RTTs. *)
        let a, b = Chan.pair () in
        links_out.(i).(j) <- Some a;
        links_in.(j).(i) <- Some b
      end
    done
  done;
  let t =
    {
      shards;
      links_out;
      links_in;
      next_gid = 1;
      gtags = Hashtbl.create 16;
      by_replica = Hashtbl.create 16;
      relaying = false;
      handlers = 0;
      acked = Interest.create ~name:"shard.acks";
      retired = Interest.create ~name:"shard.handlers";
      started = false;
      stopping = false;
      tick =
        (let hooks = Array.map (fun s -> Reactor.hook s.reactor) shards in
         fun () -> Array.iter (fun h -> h ()) hooks);
    }
  in
  (* The deleter's broadcast rides the engine's post-delete hook, so a
     plain [Wedge.tag_delete] of any replica is automatically a
     cluster-wide revocation. *)
  Array.iter
    (fun s ->
      Engine.set_on_tag_delete s.app
        (Some
           (fun (tag : Tag.t) ->
             if not t.relaying then
               match Hashtbl.find_opt t.by_replica (s.sid, tag.Tag.id) with
               | None -> ()  (* a purely local tag: local revocation suffices *)
               | Some gid -> broadcast_delete t s gid)))
    shards;
  t

(* Convenience: [n] bare booted worlds on the default cost model. *)
let make ~n () =
  if n <= 0 then invalid_arg "Shard.make: n <= 0";
  create
    (Array.init n (fun sid ->
         let kernel = Kernel.create ~shard:sid () in
         let app = W.create_app kernel in
         W.boot app;
         (kernel, app)))

(* ------------------------------------------------------------------ *)
(* Link handlers (the receiving side)                                  *)

let service_shootdown t (s : shard) ~from_sid gid =
  let costs = s.kernel.Kernel.costs in
  (* The IPI itself: serviced on the receiving shard's clock, counted on
     its kernel — [cross_shard_shootdowns] and the oracles read this stat. *)
  Stats.bump s.kernel.Kernel.stats "tlb.cross_shard_shootdown";
  Clock.charge s.kernel.Kernel.clock costs.Cost_model.tlb_shootdown;
  (match Hashtbl.find_opt t.gtags gid with
  | Some g ->
      let replica = g.g_replicas.(s.sid) in
      if replica.Tag.live then begin
        t.relaying <- true;
        Fun.protect
          ~finally:(fun () -> t.relaying <- false)
          (fun () -> Engine.tag_delete (Engine.main_ctx s.app) replica)
      end
  | None -> ());
  send t ~from:s.sid ~to_:from_sid 'A' gid

let handler t (s : shard) ~from_sid ep =
  let rec loop () =
    Chan.wait_rx ~bytes:msg_bytes ep;
    if Chan.bytes_in_flight ep >= msg_bytes then begin
      (match Chan.read_exact ep msg_bytes with
      | None -> ()
      | Some msg -> (
          let gid = decode_gid msg in
          match Bytes.get msg 0 with
          | 'S' -> service_shootdown t s ~from_sid gid
          | 'A' -> (
              match Hashtbl.find_opt t.gtags gid with
              | Some g ->
                  g.g_pending <- g.g_pending - 1;
                  Interest.signal t.acked
              | None -> ())
          | c ->
              invalid_arg
                (Printf.sprintf "Shard: bad opcode %C on link %d->%d" c from_sid
                   s.sid)));
      loop ()
    end
    (* EOF: the fabric is stopping; fall through and retire. *)
  in
  loop ();
  t.handlers <- t.handlers - 1;
  Interest.signal t.retired

let start t =
  if t.started then invalid_arg "Shard.start: already started";
  t.started <- true;
  Array.iter
    (fun s ->
      Array.iteri
        (fun from_sid ep ->
          match ep with
          | None -> ()
          | Some ep ->
              t.handlers <- t.handlers + 1;
              Fiber.spawn (fun () -> handler t s ~from_sid ep))
        t.links_in.(s.sid))
    t.shards

let stop t =
  if t.started && not t.stopping then begin
    t.stopping <- true;
    (* Closing every send end EOFs every receive end: handlers parked on
       their links wake, drain, and retire. *)
    Array.iter
      (fun row ->
        Array.iter (fun ep -> match ep with Some ep -> Chan.close ep | None -> ()) row)
      t.links_out;
    Interest.wait t.retired ~what:"shard link handlers retired" ~ready:(fun () ->
        t.handlers = 0)
  end

(* ------------------------------------------------------------------ *)
(* Scheduler wiring                                                    *)

let hook t = t.tick

let idle t = Reactor.idle_multi (reactors t)

(* ------------------------------------------------------------------ *)
(* Global tags                                                         *)

let gtag_new ?(name = "gtag") ?pages t =
  let gid = t.next_gid in
  t.next_gid <- gid + 1;
  let replicas =
    Array.map
      (fun s ->
        W.tag_new ~name:(Printf.sprintf "%s.g%d" name gid) ?pages
          (Engine.main_ctx s.app))
      t.shards
  in
  let g = { g_gid = gid; g_replicas = replicas; g_live = true; g_pending = 0 } in
  Hashtbl.replace t.gtags gid g;
  Array.iteri
    (fun sid (replica : Tag.t) ->
      Hashtbl.replace t.by_replica (sid, replica.Tag.id) gid)
    replicas;
  g

let gtag_live g = g.g_live
let replica g ~sid = g.g_replicas.(sid)

let gtag_delete t ~sid g =
  let s = t.shards.(sid) in
  Engine.tag_delete (Engine.main_ctx s.app) g.g_replicas.(sid)

let cross_shard_shootdowns t =
  Array.fold_left
    (fun acc s -> acc + Stats.get s.kernel.Kernel.stats "tlb.cross_shard_shootdown")
    0 t.shards

(* ------------------------------------------------------------------ *)
(* Audit: the fabric's own contribution to the global sweep            *)

(* Sound at every scheduler sync point, including mid-shootdown:
   - a live gtag has every replica live and no delete in flight;
   - a dead gtag with no pending acks has every replica dead — the
     revocation completed everywhere (a live replica here is exactly
     the stale-grant bug the protocol exists to prevent);
   - mid-flight (pending > 0) replicas are mixed by design, but the
     initiating side already killed its own, so the count of live
     replicas can never exceed the acks still outstanding;
   - the relay flag never survives a shootdown application. *)
let self_check t =
  let problem = ref None in
  let report fmt =
    Printf.ksprintf (fun s -> if !problem = None then problem := Some s) fmt
  in
  if t.relaying then report "shard: relay flag stuck set outside a shootdown";
  Hashtbl.iter
    (fun gid g ->
      let live_replicas =
        Array.fold_left
          (fun acc (r : Tag.t) -> if r.Tag.live then acc + 1 else acc)
          0 g.g_replicas
      in
      if g.g_live then begin
        if g.g_pending <> 0 then
          report "shard: live gtag %d has %d shootdowns in flight" gid g.g_pending;
        if live_replicas <> Array.length g.g_replicas then
          report "shard: live gtag %d has only %d/%d live replicas" gid live_replicas
            (Array.length g.g_replicas)
      end
      else if g.g_pending = 0 then begin
        if live_replicas > 0 then
          report
            "shard: gtag %d deleted but %d replica(s) still live — revocation did \
             not reach every shard"
            gid live_replicas
      end
      else if live_replicas > g.g_pending then
        report "shard: gtag %d mid-shootdown with %d live replicas > %d pending acks"
          gid live_replicas g.g_pending)
    t.gtags;
  !problem

(* ------------------------------------------------------------------ *)
(* Front door: hash connections to shards                              *)

(* FNV-1a (32-bit): tiny, seedless, and stable across runs, hosts and
   OCaml versions — the same key must land on the same shard forever,
   or a client's session affinity breaks. *)
let shard_hash key =
  let h = ref 0x811c9dc5 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xffffffff) key;
  !h

let route t ~key = shard_hash key mod n t

type front = {
  f_fab : t;
  f_listeners : Chan.listener array;
  f_guards : Guard.t array;
}

let front ?costs ?faults ?backlog ?header_deadline_ns ~max_conns t =
  let listeners =
    Array.map
      (fun s -> Chan.listener ~clock:s.kernel.Kernel.clock ?costs ?faults ?backlog ())
      t.shards
  in
  let guards =
    Array.map
      (fun s -> Guard.create ~reactor:s.reactor ?header_deadline_ns ~max_conns ())
      t.shards
  in
  { f_fab = t; f_listeners = listeners; f_guards = guards }

let front_fabric f = f.f_fab
let front_listener f sid = f.f_listeners.(sid)
let front_guard f sid = f.f_guards.(sid)

let front_connect f ~key =
  let sid = route f.f_fab ~key in
  (sid, Chan.connect f.f_listeners.(sid))

let front_drain f =
  Array.iteri (fun sid g -> Guard.drain g f.f_listeners.(sid)) f.f_guards
