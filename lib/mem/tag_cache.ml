module Physmem = Wedge_kernel.Physmem

type entry = {
  base : int;
  pages : int;
  frames : int list;
}

type t = {
  pm : Physmem.t;
  by_pages : (int, entry list ref) Hashtbl.t;
  mutable enabled : bool;
  mutable hits : int;
  mutable misses : int;
  mutable scrubbed : int;
}

let create pm =
  {
    pm;
    by_pages = Hashtbl.create 8;
    enabled = true;
    hits = 0;
    misses = 0;
    scrubbed = 0;
  }

let set_enabled t v = t.enabled <- v

let put t entry =
  if t.enabled then begin
    List.iter (fun f -> Physmem.incref t.pm f) entry.frames;
    match Hashtbl.find_opt t.by_pages entry.pages with
    | Some l -> l := entry :: !l
    | None -> Hashtbl.add t.by_pages entry.pages (ref [ entry ])
  end

let take t ~pages =
  if not t.enabled then begin
    t.misses <- t.misses + 1;
    None
  end
  else
    match Hashtbl.find_opt t.by_pages pages with
    | Some ({ contents = entry :: rest } as l) ->
        l := rest;
        t.hits <- t.hits + 1;
        List.iter
          (fun f ->
            Physmem.scrub t.pm f;
            t.scrubbed <- t.scrubbed + 1)
          entry.frames;
        Some entry
    | _ ->
        t.misses <- t.misses + 1;
        None

let entries t =
  Hashtbl.fold (fun _ l acc -> List.rev_append !l acc) t.by_pages []

let hits t = t.hits
let misses t = t.misses
let scrubbed_pages t = t.scrubbed
