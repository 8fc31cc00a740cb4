type error =
  | Enoent
  | Eacces
  | Enotdir
  | Eisdir
  | Eexist

let error_to_string = function
  | Enoent -> "no such file or directory"
  | Eacces -> "permission denied"
  | Enotdir -> "not a directory"
  | Eisdir -> "is a directory"
  | Eexist -> "file exists"

type meta = {
  uid : int;
  mode : int;
}

type filenode = {
  mutable data : string;
  fmeta : meta;
}

type dirnode = {
  entries : (string, node) Hashtbl.t;
  dmeta : meta;
}

and node =
  | File of filenode
  | Dir of dirnode

type t = { root : node }

let mknode_dir ~uid ~mode = Dir { entries = Hashtbl.create 8; dmeta = { uid; mode } }
let create () = { root = mknode_dir ~uid:0 ~mode:0o755 }

let split_path path =
  String.split_on_char '/' path |> List.filter (fun s -> s <> "" && s <> ".")

(* Permission check against owner/other bits; uid 0 bypasses. *)
let permits meta ~uid ~want_read ~want_write =
  uid = 0
  ||
  let m = meta.mode in
  let r, w =
    if uid = meta.uid then (m land 0o400 <> 0, m land 0o200 <> 0)
    else (m land 0o004 <> 0, m land 0o002 <> 0)
  in
  (not want_read || r) && (not want_write || w)

let rec next_slash s j stop = if j < stop && s.[j] <> '/' then next_slash s (j + 1) stop else j

(* Walk the components of [s] in [i, stop) from [node], as [split_path]
   splits them: "" and "." are skipped, and any other component — ".."
   too — names an entry of the directory reached so far.  Only a looked-up
   component is copied. *)
let rec walk node s i stop =
  if i >= stop then Ok node
  else
    let j = next_slash s i stop in
    if j = i || (j = i + 1 && s.[i] = '.') then walk node s (j + 1) stop
    else
      match node with
      | File _ -> Error Enotdir
      | Dir d -> (
          match Hashtbl.find_opt d.entries (String.sub s i (j - i)) with
          | Some n -> walk n s (j + 1) stop
          | None -> Error Enoent)

(* Resolve [path] under [root] (the chroot): the effective path is
   root/path, walked root first; ".." is not supported so a chroot can
   never be escaped. *)
let resolve t ~root path =
  match walk t.root root 0 (String.length root) with
  | Ok node -> walk node path 0 (String.length path)
  | Error e -> Error e

let rec mkdir_p_node node parts ~uid ~mode =
  match parts with
  | [] -> node
  | p :: rest -> (
      match node with
      | File _ -> invalid_arg "Vfs.mkdir_p: path component is a file"
      | Dir d ->
          let child =
            match Hashtbl.find_opt d.entries p with
            | Some n -> n
            | None ->
                let n = mknode_dir ~uid ~mode in
                Hashtbl.add d.entries p n;
                n
          in
          mkdir_p_node child rest ~uid ~mode)

let mkdir_p t ?(uid = 0) ?(mode = 0o755) path =
  ignore (mkdir_p_node t.root (split_path path) ~uid ~mode)

let install t ?(uid = 0) ?(mode = 0o644) path contents =
  let parts = split_path path in
  match List.rev parts with
  | [] -> invalid_arg "Vfs.install: empty path"
  | name :: rev_dir -> (
      let dir = mkdir_p_node t.root (List.rev rev_dir) ~uid:0 ~mode:0o755 in
      match dir with
      | File _ -> invalid_arg "Vfs.install: parent is a file"
      | Dir d -> (
          match Hashtbl.find_opt d.entries name with
          | Some (File f) -> f.data <- contents
          | Some (Dir _) -> invalid_arg "Vfs.install: path is a directory"
          | None ->
              Hashtbl.add d.entries name (File { data = contents; fmeta = { uid; mode } })))

let read_file t ~root ~uid path =
  match resolve t ~root path with
  | Error e -> Error e
  | Ok (Dir _) -> Error Eisdir
  | Ok (File f) ->
      if permits f.fmeta ~uid ~want_read:true ~want_write:false then Ok f.data
      else Error Eacces

(* The last component of [s] that names an entry, as [(start, stop)]. *)
let last_name s =
  let rec start i = if i > 0 && s.[i - 1] <> '/' then start (i - 1) else i in
  let rec back j =
    if j = 0 then None
    else if s.[j - 1] = '/' then back (j - 1)
    else
      let i = start (j - 1) in
      if j = i + 1 && s.[i] = '.' then back i else Some (i, j)
  in
  back (String.length s)

(* The directory holding the effective path's last named component,
   and that component. *)
let find_parent t ~root path =
  let s = root ^ "/" ^ path in
  match last_name s with
  | None -> Error Eisdir
  | Some (i, j) -> (
      match walk t.root s 0 i with
      | Error e -> Error e
      | Ok (File _) -> Error Enotdir
      | Ok (Dir d) -> Ok (d, String.sub s i (j - i)))

let write_file t ~root ~uid path contents =
  match resolve t ~root path with
  | Ok (File f) ->
      if permits f.fmeta ~uid ~want_read:false ~want_write:true then begin
        f.data <- contents;
        Ok ()
      end
      else Error Eacces
  | Ok (Dir _) -> Error Eisdir
  | Error Enoent -> (
      match find_parent t ~root path with
      | Error e -> Error e
      | Ok (d, name) ->
          if permits d.dmeta ~uid ~want_read:false ~want_write:true then begin
            Hashtbl.replace d.entries name
              (File { data = contents; fmeta = { uid; mode = 0o644 } });
            Ok ()
          end
          else Error Eacces)
  | Error e -> Error e

let append_file t ~root ~uid path contents =
  match resolve t ~root path with
  | Ok (File f) ->
      if permits f.fmeta ~uid ~want_read:false ~want_write:true then begin
        f.data <- f.data ^ contents;
        Ok ()
      end
      else Error Eacces
  | Ok (Dir _) -> Error Eisdir
  | Error Enoent -> write_file t ~root ~uid path contents
  | Error e -> Error e

let unlink t ~root ~uid path =
  match find_parent t ~root path with
  | Error e -> Error e
  | Ok (d, name) -> (
      match Hashtbl.find_opt d.entries name with
      | None -> Error Enoent
      | Some _ ->
          if permits d.dmeta ~uid ~want_read:false ~want_write:true then begin
            Hashtbl.remove d.entries name;
            Ok ()
          end
          else Error Eacces)

let readdir t ~root ~uid path =
  match resolve t ~root path with
  | Error e -> Error e
  | Ok (File _) -> Error Enotdir
  | Ok (Dir d) ->
      if permits d.dmeta ~uid ~want_read:true ~want_write:false then
        Ok (Hashtbl.fold (fun k _ acc -> k :: acc) d.entries [] |> List.sort String.compare)
      else Error Eacces

let exists t ~root path = match resolve t ~root path with Ok _ -> true | Error _ -> false

