module W = Wedge_core.Wedge
module Sc = Wedge_core.Sc
module Prot = Wedge_kernel.Prot
module Fd_table = Wedge_kernel.Fd_table
module Tag = Wedge_mem.Tag

(* ------------------------------------------------------------------ *)
(* Profiles                                                            *)

module Profile = struct
  type entry_kind = Sthread | Gate

  type fd_mode = Fd_r | Fd_w | Fd_rw

  type entry = {
    e_kind : entry_kind;
    e_name : string;
    e_tags : (string * Prot.grant) list;
    e_fds : (string * fd_mode) list;
    e_gates : string list;
    e_uid : int option;
    e_root : string option;
    e_context : string option;
  }

  type t = {
    p_app : string;
    p_entries : entry list;
  }

  type parse_error = {
    pe_line : int;
    pe_msg : string;
  }

  let kind_rank = function Sthread -> 0 | Gate -> 1
  let kind_to_string = function Sthread -> "sthread" | Gate -> "gate"

  let fd_mode_to_string = function Fd_r -> "r" | Fd_w -> "w" | Fd_rw -> "rw"

  let normalize p =
    let by_name (a, _) (b, _) = compare a b in
    let entries =
      List.map
        (fun e ->
          {
            e with
            e_tags = List.sort by_name e.e_tags;
            e_fds = List.sort by_name e.e_fds;
            e_gates = List.sort compare e.e_gates;
          })
        p.p_entries
      |> List.sort (fun a b ->
             compare (kind_rank a.e_kind, a.e_name) (kind_rank b.e_kind, b.e_name))
    in
    { p with p_entries = entries }

  let print p =
    let p = normalize p in
    let buf = Buffer.create 512 in
    let quoted s = "\"" ^ s ^ "\"" in
    Buffer.add_string buf "# wedge-synth profile v1\n";
    Buffer.add_string buf ("app " ^ quoted p.p_app ^ "\n");
    List.iter
      (fun e ->
        Buffer.add_char buf '\n';
        Buffer.add_string buf
          (kind_to_string e.e_kind ^ " " ^ quoted e.e_name ^ " {\n");
        (match e.e_uid with
        | Some u -> Buffer.add_string buf ("  uid " ^ string_of_int u ^ "\n")
        | None -> ());
        (match e.e_root with
        | Some r -> Buffer.add_string buf ("  root " ^ quoted r ^ "\n")
        | None -> ());
        (match e.e_context with
        | Some s -> Buffer.add_string buf ("  context " ^ quoted s ^ "\n")
        | None -> ());
        List.iter
          (fun (t, g) ->
            Buffer.add_string buf
              ("  tag " ^ quoted t ^ " " ^ Prot.grant_to_string g ^ "\n"))
          e.e_tags;
        List.iter
          (fun (r, m) ->
            Buffer.add_string buf
              ("  fd " ^ quoted r ^ " " ^ fd_mode_to_string m ^ "\n"))
          e.e_fds;
        List.iter
          (fun g -> Buffer.add_string buf ("  gate " ^ quoted g ^ "\n"))
          e.e_gates;
        Buffer.add_string buf "}\n")
      p.p_entries;
    Buffer.contents buf

  (* --- parsing ---------------------------------------------------- *)

  exception Fail of parse_error

  let fail ln fmt = Printf.ksprintf (fun m -> raise (Fail { pe_line = ln; pe_msg = m })) fmt

  type token = Bare of string | Quoted of string

  let tokenize ln line =
    let n = String.length line in
    let toks = ref [] in
    let i = ref 0 in
    while !i < n do
      let c = line.[!i] in
      if c = ' ' || c = '\t' || c = '\r' then incr i
      else if c = '#' then i := n
      else if c = '"' then (
        match String.index_from_opt line (!i + 1) '"' with
        | None -> fail ln "unterminated string"
        | Some j ->
            toks := Quoted (String.sub line (!i + 1) (j - !i - 1)) :: !toks;
            i := j + 1)
      else begin
        let j = ref !i in
        while
          !j < n && line.[!j] <> ' ' && line.[!j] <> '\t' && line.[!j] <> '\r'
          && line.[!j] <> '"' && line.[!j] <> '#'
        do
          incr j
        done;
        toks := Bare (String.sub line !i (!j - !i)) :: !toks;
        i := !j
      end
    done;
    List.rev !toks

  (* Mutable builder for the entry being parsed. *)
  type building = {
    b_kind : entry_kind;
    b_name : string;
    b_line : int;
    mutable b_tags : (string * Prot.grant) list;
    mutable b_fds : (string * fd_mode) list;
    mutable b_gates : string list;
    mutable b_uid : int option;
    mutable b_root : string option;
    mutable b_context : string option;
  }

  let finish b =
    {
      e_kind = b.b_kind;
      e_name = b.b_name;
      e_tags = List.rev b.b_tags;
      e_fds = List.rev b.b_fds;
      e_gates = List.rev b.b_gates;
      e_uid = b.b_uid;
      e_root = b.b_root;
      e_context = b.b_context;
    }

  let tag_mode ln = function
    | "r" -> Prot.R
    | "rw" -> Prot.RW
    | "cow" -> Prot.COW
    | "w" -> fail ln "write-only tag grants are forbidden"
    | m -> fail ln "bad tag mode '%s' (expected r, rw or cow)" m

  let fd_mode ln = function
    | "r" -> Fd_r
    | "w" -> Fd_w
    | "rw" -> Fd_rw
    | m -> fail ln "bad fd mode '%s' (expected r, w or rw)" m

  let parse s =
    try
      let app = ref None in
      let entries = ref [] in
      let cur = ref None in
      let seen_entry kind name =
        List.exists (fun e -> e.e_kind = kind && e.e_name = name) !entries
      in
      let lines = String.split_on_char '\n' s in
      List.iteri
        (fun i line ->
          let ln = i + 1 in
          match (tokenize ln line, !cur) with
          | [], _ -> ()
          | [ Bare "app"; Quoted name ], None ->
              if !app <> None then fail ln "duplicate app directive";
              app := Some name
          | Bare (("sthread" | "gate") as k) :: rest, None -> (
              let kind = if k = "sthread" then Sthread else Gate in
              match rest with
              | [ Quoted name; Bare "{" ] ->
                  if seen_entry kind name then
                    fail ln "duplicate entry %s \"%s\"" k name;
                  cur :=
                    Some
                      {
                        b_kind = kind;
                        b_name = name;
                        b_line = ln;
                        b_tags = [];
                        b_fds = [];
                        b_gates = [];
                        b_uid = None;
                        b_root = None;
                        b_context = None;
                      }
              | _ -> fail ln "expected: %s \"name\" {" k)
          | [ Bare "}" ], Some b ->
              entries := finish b :: !entries;
              cur := None
          | [ Bare "}" ], None -> fail ln "'}' outside an entry"
          | [ Bare "tag"; Quoted name; Bare mode ], Some b ->
              if List.mem_assoc name b.b_tags then
                fail ln "duplicate tag grant \"%s\"" name;
              b.b_tags <- (name, tag_mode ln mode) :: b.b_tags
          | [ Bare "fd"; Quoted role; Bare mode ], Some b ->
              if List.mem_assoc role b.b_fds then
                fail ln "duplicate fd grant \"%s\"" role;
              b.b_fds <- (role, fd_mode ln mode) :: b.b_fds
          | [ Bare "gate"; Quoted name ], Some b ->
              if List.mem name b.b_gates then
                fail ln "duplicate gate grant \"%s\"" name;
              b.b_gates <- name :: b.b_gates
          | [ Bare "uid"; Bare n ], Some b -> (
              if b.b_uid <> None then fail ln "duplicate uid directive";
              match int_of_string_opt n with
              | Some u when u >= 0 -> b.b_uid <- Some u
              | _ -> fail ln "uid expects a non-negative integer")
          | [ Bare "root"; Quoted r ], Some b ->
              if b.b_root <> None then fail ln "duplicate root directive";
              b.b_root <- Some r
          | [ Bare "context"; Quoted s ], Some b ->
              if b.b_context <> None then fail ln "duplicate context directive";
              b.b_context <- Some s
          | Bare d :: _, Some _ ->
              fail ln "unknown directive '%s' inside an entry" d
          | Bare d :: _, None -> fail ln "unknown directive '%s'" d
          | Quoted _ :: _, _ -> fail ln "directive expected")
        lines;
      (match !cur with
      | Some b -> fail (List.length lines) "unterminated entry started at line %d" b.b_line
      | None -> ());
      match !app with
      | None -> fail 1 "missing app directive"
      | Some name ->
          Ok (normalize { p_app = name; p_entries = List.rev !entries })
    with Fail e -> Error e

  let equal a b = normalize a = normalize b

  let find p kind name =
    List.find_opt (fun e -> e.e_kind = kind && e.e_name = name) p.p_entries
end

(* ------------------------------------------------------------------ *)
(* Grant enumeration and tightening                                    *)

type grant_class = Tag_read | Tag_write | Fd_use | Gate_call

type grant_ref = {
  gr_kind : Profile.entry_kind;
  gr_entry : string;
  gr_class : grant_class;
  gr_name : string;
}

let grants p =
  let p = Profile.normalize p in
  List.concat_map
    (fun (e : Profile.entry) ->
      let mk cls name =
        { gr_kind = e.e_kind; gr_entry = e.e_name; gr_class = cls; gr_name = name }
      in
      List.map
        (fun (t, g) ->
          mk (match g with Prot.RW -> Tag_write | Prot.R | Prot.COW -> Tag_read) t)
        e.e_tags
      @ List.map (fun (r, _) -> mk Fd_use r) e.e_fds
      @ List.map (fun g -> mk Gate_call g) e.e_gates)
    p.Profile.p_entries

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)

type mode = Record | Complain of Profile.t | Enforce of Profile.t

(* What one named compartment has been observed doing, across all
   connections/invocations of the session. *)
type obs = {
  ob_tags : (string, Prot.grant) Hashtbl.t;
  ob_fds : (string, Profile.fd_mode) Hashtbl.t;
  ob_gates : (string, unit) Hashtbl.t;
  mutable ob_uid : int option;
  mutable ob_root : string option;
  mutable ob_context : string option;
}

type t = {
  s_name : string;
  s_mode : mode;
  s_obs : (Profile.entry_kind * string, obs) Hashtbl.t;
  s_complaints : (string, int ref) Hashtbl.t;
  s_denials : (string, int ref) Hashtbl.t;
}

let create ~name mode =
  {
    s_name = name;
    s_mode = mode;
    s_obs = Hashtbl.create 8;
    s_complaints = Hashtbl.create 8;
    s_denials = Hashtbl.create 8;
  }

let obs_for t kind name =
  match Hashtbl.find_opt t.s_obs (kind, name) with
  | Some o -> o
  | None ->
      let o =
        {
          ob_tags = Hashtbl.create 8;
          ob_fds = Hashtbl.create 4;
          ob_gates = Hashtbl.create 4;
          ob_uid = None;
          ob_root = None;
          ob_context = None;
        }
      in
      Hashtbl.add t.s_obs (kind, name) o;
      o

let merge_grant old add =
  match (old, add) with
  | Some Prot.RW, _ | _, Prot.RW -> Prot.RW
  | Some Prot.COW, _ | _, Prot.COW -> Prot.COW
  | _, g -> g

let note_tag ob name ~write =
  let add = if write then Prot.RW else Prot.R in
  Hashtbl.replace ob.ob_tags name (merge_grant (Hashtbl.find_opt ob.ob_tags name) add)

let note_fd ob role ~write =
  let add = if write then Profile.Fd_w else Profile.Fd_r in
  let merged =
    match (Hashtbl.find_opt ob.ob_fds role, add) with
    | Some Profile.Fd_rw, _ -> Profile.Fd_rw
    | Some Profile.Fd_r, Profile.Fd_w | Some Profile.Fd_w, Profile.Fd_r ->
        Profile.Fd_rw
    | _, m -> m
  in
  Hashtbl.replace ob.ob_fds role merged

let note_gate ob name = Hashtbl.replace ob.ob_gates name ()

(* Record the compartment's identity, but only where it differs from the
   application's main process — a profile only pins what the hand-written
   policy changed, so applying it later stays a no-op for the rest. *)
let note_identity ob ctx =
  let main = W.proc (W.main_ctx (W.app_of ctx)) in
  let p = W.proc ctx in
  if p.Wedge_kernel.Process.uid <> main.Wedge_kernel.Process.uid then
    ob.ob_uid <- Some p.Wedge_kernel.Process.uid;
  if p.Wedge_kernel.Process.root <> main.Wedge_kernel.Process.root then
    ob.ob_root <- Some p.Wedge_kernel.Process.root;
  if p.Wedge_kernel.Process.sid <> main.Wedge_kernel.Process.sid then
    ob.ob_context <- Some p.Wedge_kernel.Process.sid

let role_of fds fd = List.find_opt (fun (_, n) -> n = fd) fds |> Option.map fst

(* ------------------------------------------------------------------ *)
(* Policy decisions (complain and enforce share the verdicts)          *)

let mem_verdict (entry : Profile.entry option) tag_name ~write =
  let granted =
    match entry with
    | None -> None
    | Some e -> List.assoc_opt tag_name e.Profile.e_tags
  in
  match (granted, write) with
  | Some (Prot.RW | Prot.COW), _ -> None
  | Some Prot.R, false -> None
  | Some Prot.R, true -> Some (Printf.sprintf "write to tag %s denied (granted r)" tag_name)
  | None, true -> Some (Printf.sprintf "write to tag %s denied (not granted)" tag_name)
  | None, false -> Some (Printf.sprintf "read of tag %s denied (not granted)" tag_name)

let fd_verdict (entry : Profile.entry option) role ~write =
  let granted =
    match entry with
    | None -> None
    | Some e -> List.assoc_opt role e.Profile.e_fds
  in
  match (granted, write) with
  | Some Profile.Fd_rw, _ -> None
  | Some Profile.Fd_r, false | Some Profile.Fd_w, true -> None
  | Some Profile.Fd_r, true ->
      Some (Printf.sprintf "write to fd %s denied (granted r)" role)
  | Some Profile.Fd_w, false ->
      Some (Printf.sprintf "read of fd %s denied (granted w)" role)
  | None, _ -> Some (Printf.sprintf "fd %s denied (not granted)" role)

let gate_verdict (entry : Profile.entry option) gate =
  let granted =
    match entry with
    | None -> false
    | Some e -> List.mem gate e.Profile.e_gates
  in
  if granted then None
  else Some (Printf.sprintf "callgate %s denied (not granted)" gate)

let bump tbl msg =
  match Hashtbl.find_opt tbl msg with
  | Some r -> incr r
  | None -> Hashtbl.add tbl msg (ref 1)

(* The per-ctx hooks for an installed profile.  Observation happens first
   in every mode so the differ and [synthesize] see the compartment's
   actual behaviour; then the verdict either counts (complain) or denies
   (enforce). *)
let profile_hooks t ~entry_name (entry : Profile.entry option) ob ~fds ~enforce ctx =
  let decide verdict =
    match verdict with
    | None -> None
    | Some msg ->
        let msg = Printf.sprintf "profile %s: %s" entry_name msg in
        if enforce then begin
          bump t.s_denials msg;
          Some msg
        end
        else begin
          bump t.s_complaints msg;
          W.stat ctx "policy.complain";
          W.trace_instant ctx "policy.complain";
          None
        end
  in
  {
    W.pol_mem =
      (fun ~addr ~len:_ ~write ->
        match W.find_tag_by_addr (W.app_of ctx) addr with
        | None -> None (* heap, stack, pristine image: outside tag policy *)
        | Some tag ->
            note_tag ob tag.Tag.name ~write;
            decide (mem_verdict entry tag.Tag.name ~write));
    pol_fd =
      (fun ~fd ~write ->
        match role_of fds fd with
        | None -> None (* descriptors outside the role map: sc governs *)
        | Some role ->
            note_fd ob role ~write;
            decide (fd_verdict entry role ~write));
    pol_gate =
      (fun gate ->
        note_gate ob gate;
        decide (gate_verdict entry gate));
  }

(* Record-mode hooks: pure observation of descriptors and callgates (tag
   accesses come from the attached cb-log, which attributes them by
   segment). *)
let observe_hooks ob ~fds =
  {
    W.pol_mem = (fun ~addr:_ ~len:_ ~write:_ -> None);
    pol_fd =
      (fun ~fd ~write ->
        (match role_of fds fd with
        | Some role -> note_fd ob role ~write
        | None -> ());
        None);
    pol_gate =
      (fun gate ->
        note_gate ob gate;
        None);
  }

(* Fold a compartment's cb-log trace into its observation record: every
   tagged item it touched, at the weakest sufficient mode (Query 1 over
   the whole compartment body). *)
let fold_trace ob tr =
  List.iter
    (fun (ir : Cb_analyze.item_report) ->
      match (ir.Cb_analyze.ir_segment.Trace.kind, ir.Cb_analyze.ir_segment.Trace.label) with
      | Trace.Tagged _, Some name ->
          if ir.Cb_analyze.ir_reads > 0 then note_tag ob name ~write:false;
          if ir.Cb_analyze.ir_writes > 0 then note_tag ob name ~write:true
      | _ -> ())
    (Cb_analyze.items_of tr)

let install_record t kind name ~fds ctx =
  let ob = obs_for t kind name in
  note_identity ob ctx;
  let cb = Cb_log.create () in
  (* Tags allocated before this compartment started (by main, by the
     environment) must be visible as segments or their accesses would go
     unattributed. *)
  List.iter
    (fun (tag : Tag.t) ->
      ignore
        (Trace.add_segment (Cb_log.trace cb) ~label:tag.Tag.name ~base:tag.Tag.base
           ~len:(Tag.size_bytes tag) ~kind:(Trace.Tagged tag.Tag.id) ~bt:[]))
    (W.live_tags (W.app_of ctx));
  let saved = W.instr_of ctx in
  W.set_instr ctx (Cb_log.instr cb);
  W.set_policy ctx (Some (observe_hooks ob ~fds));
  fun () ->
    W.set_policy ctx None;
    W.set_instr ctx saved;
    fold_trace ob (Cb_log.trace cb)

let install_profile t kind name ~fds ctx profile ~enforce =
  let ob = obs_for t kind name in
  note_identity ob ctx;
  let entry = Profile.find profile kind name in
  W.set_policy ctx (Some (profile_hooks t ~entry_name:name entry ob ~fds ~enforce ctx));
  fun () -> W.set_policy ctx None

let run_wrapped t kind name ~fds ctx body =
  let uninstall =
    match t.s_mode with
    | Record -> install_record t kind name ~fds ctx
    | Complain p -> install_profile t kind name ~fds ctx p ~enforce:false
    | Enforce p -> install_profile t kind name ~fds ctx p ~enforce:true
  in
  Fun.protect ~finally:uninstall body

let wrap_sthread t ~name ~fds body ctx arg =
  match t with
  | None -> body ctx arg
  | Some t -> run_wrapped t Profile.Sthread name ~fds ctx (fun () -> body ctx arg)

let wrap_gate t ~name entry ctx ~trusted ~arg =
  match t with
  | None -> entry ctx ~trusted ~arg
  | Some t ->
      run_wrapped t Profile.Gate name ~fds:[] ctx (fun () -> entry ctx ~trusted ~arg)

(* ------------------------------------------------------------------ *)
(* Applying a profile: synthesized security contexts                   *)

let resolve_tag ~tags ctx name =
  match List.find_opt (fun (t : Tag.t) -> t.Tag.name = name && t.Tag.live) tags with
  | Some t -> Some t
  | None ->
      List.find_opt (fun (t : Tag.t) -> t.Tag.name = name) (W.live_tags (W.app_of ctx))

let perm_of_fd_mode = function
  | Profile.Fd_r -> Fd_table.perm_r
  | Profile.Fd_w -> Fd_table.perm_w
  | Profile.Fd_rw -> Fd_table.perm_rw

let sc_of_entry (e : Profile.entry) ~tags ~fds ctx =
  let sc = Sc.create () in
  List.iter
    (fun (name, grant) ->
      match resolve_tag ~tags ctx name with
      | Some tag -> Sc.mem_add sc tag grant
      | None -> () (* stale grant: the hooks still deny fresh use *))
    e.Profile.e_tags;
  List.iter
    (fun (role, mode) ->
      match List.assoc_opt role fds with
      | Some fd -> Sc.fd_add sc fd (perm_of_fd_mode mode)
      | None -> ())
    e.Profile.e_fds;
  (* Gate grants are added when the gates are minted (sc_cgate_add); the
     profile's gate lines are enforced by the pol_gate hook. *)
  (match e.Profile.e_uid with Some u -> Sc.set_uid sc u | None -> ());
  (match e.Profile.e_root with Some r -> Sc.set_root sc r | None -> ());
  (match e.Profile.e_context with Some s -> Sc.sel_context sc s | None -> ());
  sc

let sthread_sc t ~name ~tags ~fds ctx =
  match t with
  | Some { s_mode = Enforce p; _ } ->
      Profile.find p Profile.Sthread name
      |> Option.map (fun e -> sc_of_entry e ~tags ~fds ctx)
  | _ -> None

let gate_sc t ~name ~tags ctx =
  match t with
  | Some { s_mode = Enforce p; _ } ->
      Profile.find p Profile.Gate name
      |> Option.map (fun e -> sc_of_entry e ~tags ~fds:[] ctx)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Results                                                             *)

let sorted_counts tbl =
  Hashtbl.fold (fun msg r acc -> (msg, !r) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let complaints t = sorted_counts t.s_complaints
let denials t = sorted_counts t.s_denials

let synthesize t =
  let entries =
    Hashtbl.fold
      (fun (kind, name) ob acc ->
        {
          Profile.e_kind = kind;
          e_name = name;
          e_tags = Hashtbl.fold (fun k v l -> (k, v) :: l) ob.ob_tags [];
          e_fds = Hashtbl.fold (fun k v l -> (k, v) :: l) ob.ob_fds [];
          e_gates = Hashtbl.fold (fun k () l -> k :: l) ob.ob_gates [];
          e_uid = ob.ob_uid;
          e_root = ob.ob_root;
          e_context = ob.ob_context;
        }
        :: acc)
      t.s_obs []
  in
  Profile.normalize { Profile.p_app = t.s_name; p_entries = entries }

let diff ~installed ~observed =
  let installed = Profile.normalize installed in
  let lines = ref [] in
  let push fmt = Printf.ksprintf (fun m -> lines := m :: !lines) fmt in
  List.iter
    (fun (o : Profile.entry) ->
      let where = Profile.kind_to_string o.e_kind ^ " " ^ o.e_name in
      match Profile.find installed o.e_kind o.e_name with
      | None -> push "%s: no installed entry" where
      | Some i ->
          List.iter
            (fun (tname, og) ->
              match List.assoc_opt tname i.Profile.e_tags with
              | Some ig when Prot.grant_subsumes ~parent:ig ~child:og -> ()
              | Some ig ->
                  push "%s: tag %s %s exceeds installed %s" where tname
                    (Prot.grant_to_string og) (Prot.grant_to_string ig)
              | None -> push "%s: tag %s %s not installed" where tname (Prot.grant_to_string og))
            o.e_tags;
          List.iter
            (fun (role, om) ->
              let subsumed =
                match (List.assoc_opt role i.Profile.e_fds, om) with
                | Some Profile.Fd_rw, _ -> true
                | Some m, m' -> m = m'
                | None, _ -> false
              in
              if not subsumed then
                push "%s: fd %s %s not installed" where role (Profile.fd_mode_to_string om))
            o.e_fds;
          List.iter
            (fun g ->
              if not (List.mem g i.Profile.e_gates) then
                push "%s: gate %s not installed" where g)
            o.e_gates)
    (Profile.normalize observed).p_entries;
  List.sort compare !lines

let self_check t () =
  match t.s_mode with
  | Record | Complain _ -> None
  | Enforce installed -> (
      match denials t with
      | (msg, n) :: _ -> Some (Printf.sprintf "%d denial(s), first: %s" n msg)
      | [] -> (
          match diff ~installed ~observed:(synthesize t) with
          | [] -> None
          | excess :: _ -> Some ("observed exceeds installed profile: " ^ excess)))

module For_testing = struct
  let normalize = Profile.normalize
  let find = Profile.find
end
