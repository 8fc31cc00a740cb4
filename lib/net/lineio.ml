(* Buffered line-oriented I/O with an offset cursor.

   The buffer is a flat byte array with read/write positions; consuming a
   line advances [rpos] instead of copying the whole remainder (the old
   Buffer-based version re-copied every buffered byte per line, O(n²)
   over a pipelined session).  [scanned] remembers how far newline
   scanning has progressed so repeated refills never rescan bytes.  A
   line is copied out once; an exact read fills its own result, so a body
   is copied once on its way out and never grows the buffer.

   Lines are capped at [max_line] bytes: one hostile client dribbling an
   endless header must not balloon this buffer without bound.  Overflow
   poisons the stream — [read_line] returns [None], [overflowed] turns
   true, and the owning server decides how to reject. *)

type t = {
  recv : int -> bytes;
  send : bytes -> unit;
  mutable data : Bytes.t;
  mutable rpos : int;
  mutable wpos : int;
  mutable scanned : int;  (* rpos <= scanned <= wpos; no '\n' in [rpos, scanned) *)
  mutable eof : bool;
  max_line : int;
  mutable overflow : bool;
}

let default_max_line = 1 lsl 20  (* 1 MiB: far beyond any legitimate line *)

let create ?(max_line = default_max_line) ~recv ~send () =
  if max_line <= 0 then invalid_arg "Lineio.create: max_line <= 0";
  {
    recv;
    send;
    data = Bytes.create 256;
    rpos = 0;
    wpos = 0;
    scanned = 0;
    eof = false;
    max_line;
    overflow = false;
  }

let of_chan ?max_line ep =
  create ?max_line ~recv:(fun n -> Chan.read ep n) ~send:(fun b -> Chan.write ep b) ()

let available t = t.wpos - t.rpos
let overflowed t = t.overflow

(* Make room for [n] more bytes: compact in place when the dead prefix
   suffices, otherwise grow geometrically. *)
let ensure_space t n =
  let cap = Bytes.length t.data in
  if t.wpos + n > cap then begin
    let live = available t in
    if live + n <= cap then begin
      Bytes.blit t.data t.rpos t.data 0 live;
      t.scanned <- t.scanned - t.rpos;
      t.rpos <- 0;
      t.wpos <- live
    end
    else begin
      let fresh = Bytes.create (max (cap * 2) (live + n)) in
      Bytes.blit t.data t.rpos fresh 0 live;
      t.data <- fresh;
      t.scanned <- t.scanned - t.rpos;
      t.rpos <- 0;
      t.wpos <- live
    end
  end

let refill t =
  if not t.eof then begin
    let chunk = t.recv 512 in
    let n = Bytes.length chunk in
    if n = 0 then t.eof <- true
    else begin
      ensure_space t n;
      Bytes.blit chunk 0 t.data t.wpos n;
      t.wpos <- t.wpos + n
    end
  end

let find_newline t =
  let rec go i =
    if i >= t.wpos then begin
      t.scanned <- t.wpos;
      None
    end
    else if Bytes.get t.data i = '\n' then Some i
    else go (i + 1)
  in
  go (max t.rpos t.scanned)

(* Advance the read cursor past [n] buffered bytes. *)
let drop t n =
  t.rpos <- t.rpos + n;
  if t.rpos = t.wpos then begin
    t.rpos <- 0;
    t.wpos <- 0;
    t.scanned <- 0
  end
  else if t.scanned < t.rpos then t.scanned <- t.rpos

(* The next [len] buffered bytes as a line, less one trailing '\r',
   copied once; then [skip] more bytes (the '\n', if any) are dropped. *)
let take_line t len skip =
  let keep = if len > 0 && Bytes.get t.data (t.rpos + len - 1) = '\r' then len - 1 else len in
  let line = Bytes.sub_string t.data t.rpos keep in
  drop t (len + skip);
  line

(* A line past [max_line] poisons the stream: the buffered bytes are
   dropped and the connection is treated as at EOF — the server layer
   checks [overflowed] to send its protocol-specific rejection before
   closing. *)
let poison t =
  t.overflow <- true;
  t.eof <- true;
  t.rpos <- 0;
  t.wpos <- 0;
  t.scanned <- 0

let read_line t =
  if t.overflow then None
  else
    let rec go () =
      match find_newline t with
      | Some i ->
          let len = i - t.rpos in
          if len > t.max_line then begin
            poison t;
            None
          end
          else Some (take_line t len 1)
      | None ->
          if available t > t.max_line then begin
            poison t;
            None
          end
          else if t.eof then
            (* Final unterminated line: a trailing '\r' is stripped exactly
               like on the newline path, so "QUIT\r" without a final '\n'
               parses as "QUIT", not as an unknown command. *)
            if available t = 0 then None else Some (take_line t (available t) 0)
          else begin
            refill t;
            go ()
          end
    in
    go ()

(* One n-byte result, filled in place: the buffered bytes first, then
   [recv] asked for exactly what is still missing, so a body never
   passes through the line buffer. *)
let read_exact t n =
  if t.overflow || n < 0 || n > t.max_line then None
  else begin
    let out = Bytes.create n in
    let have = min n (available t) in
    Bytes.blit t.data t.rpos out 0 have;
    drop t have;
    let rec fill filled =
      if filled = n then Some out
      else if t.eof then None
      else begin
        let chunk = t.recv (n - filled) in
        let len = Bytes.length chunk in
        if len = 0 then begin
          t.eof <- true;
          None
        end
        else begin
          Bytes.blit chunk 0 out filled len;
          fill (filled + len)
        end
      end
    in
    fill have
  end

(* The concatenation is fresh and held by no one else: handing it over
   as bytes copies nothing more. *)
let write_line t s = t.send (Bytes.unsafe_of_string (s ^ "\r\n"))
