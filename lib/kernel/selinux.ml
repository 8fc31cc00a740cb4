type t = {
  default_allow : bool;
  domains : (string, (string, unit) Hashtbl.t) Hashtbl.t;
  transitions : (string * string, unit) Hashtbl.t;
  sid_domains : (string, string) Hashtbl.t;
      (* [domain_of_sid] of every sid checked so far: a policy check on
         the kernel-entry path allocates nothing *)
}

let create ?(default_allow = true) () =
  {
    default_allow;
    domains = Hashtbl.create 8;
    transitions = Hashtbl.create 8;
    sid_domains = Hashtbl.create 8;
  }

let domain_of_sid sid =
  match String.rindex_opt sid ':' with
  | Some i -> String.sub sid (i + 1) (String.length sid - i - 1)
  | None -> sid

let domain t sid =
  match Hashtbl.find t.sid_domains sid with
  | d -> d
  | exception Not_found ->
      let d = domain_of_sid sid in
      Hashtbl.add t.sid_domains sid d;
      d

let allow t ~domain ~syscall =
  match Hashtbl.find_opt t.domains domain with
  | Some h -> Hashtbl.replace h syscall ()
  | None ->
      let h = Hashtbl.create 8 in
      Hashtbl.replace h syscall ();
      Hashtbl.replace t.domains domain h

let check t ~sid ~syscall =
  match Hashtbl.find t.domains (domain t sid) with
  | h -> Hashtbl.mem h syscall
  | exception Not_found -> t.default_allow

let allow_transition t ~from_ ~to_ =
  Hashtbl.replace t.transitions (domain_of_sid from_, domain_of_sid to_) ()

let may_transition t ~from_ ~to_ =
  let f = domain_of_sid from_ and g = domain_of_sid to_ in
  f = g || Hashtbl.mem t.transitions (f, g)
