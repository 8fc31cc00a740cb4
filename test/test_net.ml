(* Network simulator tests: channel semantics (including simulated RTT
   charging), line-oriented I/O, listener lifecycle, and the MITM
   interposer's replace/drop/inject actions. *)

module Fiber = Wedge_sim.Fiber
module Clock = Wedge_sim.Clock
module Cost_model = Wedge_sim.Cost_model
module Chan = Wedge_net.Chan
module Lineio = Wedge_net.Lineio
module Mitm = Wedge_net.Mitm
module Fault_plan = Wedge_fault.Fault_plan

let check = Alcotest.check

(* ---------- chan ---------- *)

let test_partial_reads () =
  Fiber.run (fun () ->
      let a, b = Chan.pair () in
      Chan.write_string b "abcdef";
      check Alcotest.string "up to n" "abc" (Bytes.to_string (Chan.read a 3));
      check Alcotest.string "rest" "def" (Bytes.to_string (Chan.read a 100)))

let test_read_exact_across_writes () =
  Fiber.run (fun () ->
      let a, b = Chan.pair () in
      Fiber.spawn (fun () ->
          Chan.write_string b "hel";
          Fiber.yield ();
          Chan.write_string b "lo!");
      check (Alcotest.option Alcotest.string) "stitched" (Some "hello!")
        (Option.map Bytes.to_string (Chan.read_exact a 6)))

let test_read_exact_eof_mid_message () =
  Fiber.run (fun () ->
      let a, b = Chan.pair () in
      Chan.write_string b "par";
      Chan.close b;
      check Alcotest.bool "None on short" true (Chan.read_exact a 6 = None))

let test_write_after_close_rejected () =
  Fiber.run (fun () ->
      let _, b = Chan.pair () in
      Chan.close b;
      match Chan.write_string b "x" with
      | () -> Alcotest.fail "expected rejection"
      | exception Invalid_argument _ -> ())

let test_blocking_read_charges_rtt () =
  let clock = Clock.create () in
  Fiber.run (fun () ->
      let a, b = Chan.pair ~clock ~costs:Cost_model.default () in
      Fiber.spawn (fun () -> Chan.write_string b "x");
      let t0 = Clock.now clock in
      ignore (Chan.read a 1);
      check Alcotest.bool "blocked read charged half RTT" true
        (Clock.now clock - t0 >= Cost_model.default.Cost_model.net_rtt / 2));
  (* A non-blocking read charges nothing. *)
  let clock2 = Clock.create () in
  Fiber.run (fun () ->
      let a, b = Chan.pair ~clock:clock2 ~costs:Cost_model.default () in
      Chan.write_string b "y";
      let t0 = Clock.now clock2 in
      ignore (Chan.read a 1);
      check Alcotest.int "immediate read free" t0 (Clock.now clock2))

let test_bytes_in_flight () =
  Fiber.run (fun () ->
      let a, b = Chan.pair () in
      Chan.write_string b "12345";
      check Alcotest.int "buffered" 5 (Chan.bytes_in_flight a);
      ignore (Chan.read a 2);
      check Alcotest.int "drained" 3 (Chan.bytes_in_flight a))

let test_listener_shutdown () =
  Fiber.run (fun () ->
      let l = Chan.listener () in
      let got = ref `Pending in
      Fiber.spawn (fun () ->
          match Chan.accept l with Some _ -> got := `Conn | None -> got := `Down);
      Fiber.yield ();
      Chan.shutdown l;
      Fiber.yield ();
      check Alcotest.bool "accept returned None" true (!got = `Down);
      (* A down listener refuses (a contained, supervisable condition),
         never Invalid_argument (which would escape containment). *)
      (match Chan.connect l with
      | _ -> Alcotest.fail "connect after shutdown"
      | exception Chan.Refused _ -> ());
      check Alcotest.int "refusal counted" 1 (Probe.refused l))

let test_listener_queueing () =
  Fiber.run (fun () ->
      let l = Chan.listener () in
      let c1 = Chan.connect l in
      let c2 = Chan.connect l in
      check Alcotest.int "two pending" 2 (Probe.pending l);
      Chan.write_string c1 "1";
      Chan.write_string c2 "2";
      let s1 = Option.get (Chan.accept l) in
      let s2 = Option.get (Chan.accept l) in
      check Alcotest.string "fifo order" "1" (Bytes.to_string (Chan.read s1 1));
      check Alcotest.string "fifo order 2" "2" (Bytes.to_string (Chan.read s2 1)))

(* A writer dribbling [step]-byte writes into a [cap]-byte channel
   blocks at the high watermark mid-payload: the first read sees a
   partial payload, and reading on to EOF must lose nothing.  Capacity,
   payload size and write size come from the suite's seeded PRNG
   (WEDGE_TEST_SEED). *)
let prop_read_through_capacity_watermark =
  Test_rng.to_alcotest
    (QCheck.Test.make ~name:"read through a capacity watermark loses nothing"
       ~count:60
       QCheck.(triple (int_range 8 64) (int_range 1 300) (int_range 1 8))
       (fun (cap, extra, step) ->
         let plen = cap + extra in
         let payload = String.init plen (fun i -> Char.chr (Char.code 'a' + (i mod 26))) in
         let ok = ref false in
         Fiber.run (fun () ->
             let a, b = Chan.pair ~capacity:cap () in
             Fiber.spawn (fun () ->
                 let off = ref 0 in
                 while !off < plen do
                   let n = min step (plen - !off) in
                   Chan.write_string b (String.sub payload !off n);
                   off := !off + n
                 done;
                 Chan.close b);
             Fiber.wait_until ~what:"writer at watermark" (fun () ->
                 Chan.bytes_in_flight a >= cap);
             (* The writer is wedged at the watermark: the first read is
                bounded by cap plus the final sub-watermark push. *)
             let first = Chan.read a plen in
             let got = Buffer.create 64 in
             let rec go b =
               if Bytes.length b > 0 then begin
                 Buffer.add_bytes got b;
                 go (Chan.read a plen)
               end
             in
             go first;
             let n = Bytes.length first in
             ok := n > 0 && n < cap + step && Buffer.contents got = payload);
         !ok))

(* ---------- lineio ---------- *)

(* A Lineio over [input], delivered at most [chunk] bytes per [recv],
   each copied out of [input] as a channel copies out of its buffer;
   with the sent bytes and a count of [recv] calls. *)
let dribble ?(chunk = max_int) input =
  let pos = ref 0 and calls = ref 0 in
  let recv n =
    incr calls;
    let len = min (min n chunk) (String.length input - !pos) in
    let b = Bytes.sub (Bytes.unsafe_of_string input) !pos len in
    pos := !pos + len;
    b
  in
  let out = Buffer.create 32 in
  (Lineio.create ~recv ~send:(Buffer.add_bytes out) (), out, calls)

let mk_lineio input =
  let io, out, _ = dribble input in
  (io, out)

let test_lineio_lines () =
  let io, _ = mk_lineio "one\r\ntwo\nthree" in
  check (Alcotest.option Alcotest.string) "crlf" (Some "one") (Lineio.read_line io);
  check (Alcotest.option Alcotest.string) "lf" (Some "two") (Lineio.read_line io);
  check (Alcotest.option Alcotest.string) "unterminated tail" (Some "three") (Lineio.read_line io);
  check (Alcotest.option Alcotest.string) "eof" None (Lineio.read_line io)

let test_lineio_empty_lines () =
  let io, _ = mk_lineio "\r\n\na" in
  check (Alcotest.option Alcotest.string) "empty crlf" (Some "") (Lineio.read_line io);
  check (Alcotest.option Alcotest.string) "empty lf" (Some "") (Lineio.read_line io);
  check (Alcotest.option Alcotest.string) "tail" (Some "a") (Lineio.read_line io)

let test_lineio_eof_cr_tail () =
  (* Regression: a final line terminated by EOF right after '\r' (the
     peer died between the '\r' and the '\n') must strip the '\r' just
     like the newline path does. *)
  let io, _ = mk_lineio "QUIT\r" in
  check (Alcotest.option Alcotest.string) "cr tail stripped" (Some "QUIT")
    (Lineio.read_line io);
  check (Alcotest.option Alcotest.string) "eof after tail" None (Lineio.read_line io);
  (* Only one trailing '\r' is stripped; interior ones survive. *)
  let io2, _ = mk_lineio "a\rb\r" in
  check (Alcotest.option Alcotest.string) "interior cr kept" (Some "a\rb")
    (Lineio.read_line io2)

let test_lineio_read_exact_mixes_with_lines () =
  let io, _ = mk_lineio "HDR\r\nBODYBODY!" in
  check (Alcotest.option Alcotest.string) "line" (Some "HDR") (Lineio.read_line io);
  check (Alcotest.option Alcotest.string) "exact" (Some "BODYBODY!")
    (Option.map Bytes.to_string (Lineio.read_exact io 9));
  check Alcotest.bool "short read is None" true (Lineio.read_exact io 5 = None)

let test_lineio_write_line () =
  let io, out = mk_lineio "" in
  Lineio.write_line io "hello";
  check Alcotest.string "crlf appended" "hello\r\n" (Buffer.contents out)

let exact io n = Option.map Bytes.to_string (Lineio.read_exact io n)

let test_lineio_read_exact_one_byte_chunks () =
  let body = String.init 300 (fun i -> Char.chr (32 + (i mod 90))) in
  let io, _, calls = dribble ~chunk:1 ("+OK\r\n" ^ body ^ ".\r\n") in
  check (Alcotest.option Alcotest.string) "status" (Some "+OK") (Lineio.read_line io);
  let before = !calls in
  check (Alcotest.option Alcotest.string) "body" (Some body) (exact io 300);
  check Alcotest.int "one recv per byte, none past the body" 300 (!calls - before);
  check (Alcotest.option Alcotest.string) "next line" (Some ".") (Lineio.read_line io)

let test_lineio_read_exact_leaves_next_line () =
  let io, _, calls = dribble "+OK 5 octets\r\nhello\r\n.\r\n+OK bye\r\n" in
  check (Alcotest.option Alcotest.string) "status" (Some "+OK 5 octets") (Lineio.read_line io);
  check (Alcotest.option Alcotest.string) "body" (Some "hello") (exact io 5);
  check (Alcotest.option Alcotest.string) "terminator" (Some "") (Lineio.read_line io);
  check (Alcotest.option Alcotest.string) "dot" (Some ".") (Lineio.read_line io);
  check (Alcotest.option Alcotest.string) "next reply" (Some "+OK bye") (Lineio.read_line io);
  check Alcotest.int "everything arrived in one recv" 1 !calls

let test_lineio_read_exact_eof_and_edges () =
  let io, _, _ = dribble ~chunk:3 "HDR\r\nshort" in
  ignore (Lineio.read_line io);
  check (Alcotest.option Alcotest.string) "n = 0" (Some "") (exact io 0);
  check (Alcotest.option Alcotest.string) "EOF partway" None (exact io 9);
  check (Alcotest.option Alcotest.string) "n = 0 at EOF" (Some "") (exact io 0);
  check (Alcotest.option Alcotest.string) "stays at EOF" None (Lineio.read_line io);
  (* Hostile lengths are refused, never raised on and never allocated. *)
  let io, _, calls = dribble "+OK\r\nbody" in
  ignore (Lineio.read_line io);
  check (Alcotest.option Alcotest.string) "n < 0" None (exact io (-5));
  check (Alcotest.option Alcotest.string) "n = min_int" None (exact io min_int);
  (* One byte past the 1 MiB line cap. *)
  check (Alcotest.option Alcotest.string) "n past max_line" None (exact io ((1 lsl 20) + 1));
  check (Alcotest.option Alcotest.string) "n = max_int" None (exact io max_int);
  check Alcotest.int "no recv for a refused length" 1 !calls;
  check (Alcotest.option Alcotest.string) "stream intact" (Some "body") (exact io 4);
  (* Exactly at the cap reads. *)
  let at_cap = String.make (1 lsl 20) 'b' in
  let io, _, _ = dribble ("+OK\r\n" ^ at_cap) in
  ignore (Lineio.read_line io);
  check Alcotest.bool "n = max_line reads" true (exact io (1 lsl 20) = Some at_cap)

(* Host words as the repository benchmark counts them: minor words plus
   words allocated directly in the major heap. *)
let host_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. (major -. promoted)

(* Words one [Bytes] of [n] bytes takes, header included. *)
let bytes_words n = float ((n / 8) + 2)

(* [write_sub] sends exactly [b]'s bytes in [off, off + len), and a
   range outside [b] is refused before the fault roll: nothing pushed,
   the site's op count unmoved. *)
let test_write_sub_range () =
  let faults = Fault_plan.create () in
  (* A rule that never fires (no [prob], no [nth]) counts the site's rolls. *)
  Fault_plan.rule faults ~site:"chan.write" [ Fault_plan.Drop ];
  Fiber.run (fun () ->
      let a, b = Chan.pair ~faults () in
      let src = Bytes.of_string "0123456789" in
      Chan.write_sub b src 2 5;
      Chan.write_sub b src 10 0;
      check Alcotest.string "exactly [2, 7)" "23456" (Bytes.to_string (Chan.read a 100));
      let rolls = Probe.site_ops faults ~site:"chan.write" in
      check Alcotest.int "one roll per write" 2 rolls;
      List.iter
        (fun (off, len) ->
          match Chan.write_sub b src off len with
          | () -> Alcotest.failf "range (%d, %d) accepted" off len
          | exception Invalid_argument _ -> ())
        [ (-1, 1); (0, -1); (0, 11); (10, 1); (11, 0); (5, max_int) ];
      check Alcotest.int "nothing pushed" 0 (Chan.bytes_in_flight a);
      check Alcotest.int "no fault roll" rolls (Probe.site_ops faults ~site:"chan.write"))

(* A truncated write delivers the first byte of its range, [b.[off]],
   then the direction dies. *)
let test_write_sub_truncate () =
  let faults = Fault_plan.create () in
  Fault_plan.rule faults ~site:"chan.write" ~prob:1.0 [ Fault_plan.Truncate ];
  Fiber.run (fun () ->
      let a, b = Chan.pair ~faults () in
      Chan.write_sub b (Bytes.of_string "0123456789") 3 4;
      check Alcotest.string "b.[off] alone" "3" (Bytes.to_string (Chan.read a 100));
      check Alcotest.string "then EOF" "" (Bytes.to_string (Chan.read a 100)))

(* A body is copied once on its way out: the status line is read through
   the line buffer, then the body is filled in place from what is
   buffered and one [recv] of the rest.  The recv copies out of one whole
   reply, as a channel does, and its copies count.  Before, the buffer
   grew to hold the body and the body was copied out twice (~7,280
   words). *)
let test_lineio_host_words () =
  let reply = "+OK 8192 octets\r\n" ^ String.make 8192 'b' ^ "\r\n.\r\n" in
  let retr () =
    let io, _, _ = dribble reply in
    ignore (Sys.opaque_identity (Lineio.read_line io));
    ignore (Sys.opaque_identity (Lineio.read_exact io 8192))
  in
  retr ();
  let w0 = host_words () in
  retr ();
  let w = host_words () -. w0 in
  (* The body's result, the rest of the body as received, the first
     512-byte recv, the line buffer and a few words (~2,240 in all). *)
  let bound = (2. *. bytes_words 8192) +. 300. in
  if w > bound then Alcotest.failf "read_exact, 8 KiB body: %.0f host words (bound %.0f)" w bound;
  (* A buffered CRLF line costs one string and a few words (~51 for a
     200-byte line, 27 of them the string): no copy with its terminator,
     no second copy without its '\r' (~105 before). *)
  let line = String.make 200 'l' in
  let io, _, _ = dribble (String.concat "\r\n" [ line; line; line ]) in
  ignore (Lineio.read_line io);
  let w0 = host_words () in
  let got = Sys.opaque_identity (Lineio.read_line io) in
  let w = host_words () -. w0 in
  check (Alcotest.option Alcotest.string) "line" (Some line) got;
  let bound = bytes_words 200 +. 32. in
  if w > bound then Alcotest.failf "read_line, 200-byte CRLF line: %.0f host words (bound %.0f)" w bound

(* A direction's ring grows to fit what it must hold: one 8 KiB write
   into a fresh pair allocates one 8 KiB ring, not twice that, and once
   the reader has drained it a second equal write allocates no ring. *)
let test_ring_grows_to_fit () =
  let msg = Bytes.make 8192 'r' in
  let first = ref 0. and second = ref 0. in
  Fiber.run (fun () ->
      let a, b = Chan.pair () in
      let w0 = host_words () in
      Chan.write b msg;
      first := host_words () -. w0;
      ignore (Sys.opaque_identity (Chan.read a 8192));
      let w0 = host_words () in
      Chan.write b msg;
      second := host_words () -. w0);
  let bound = bytes_words 8192 +. 64. in
  if !first > bound then
    Alcotest.failf "first 8 KiB write: %.0f host words (bound %.0f)" !first bound;
  if !second > 64. then Alcotest.failf "second 8 KiB write: %.0f host words (bound 64)" !second

(* ---------- mitm ---------- *)

let run_mitm client_script server_script =
  let mitm = Mitm.create () in
  Fiber.run (fun () ->
      let client_ep, mitm_client = Chan.pair () in
      let mitm_server, server_ep = Chan.pair () in
      Mitm.splice mitm ~client_side:mitm_client ~server_side:mitm_server;
      Fiber.spawn (fun () -> server_script server_ep);
      client_script client_ep;
      Chan.close client_ep);
  mitm

let test_mitm_captures_both_directions () =
  let mitm =
    run_mitm
      (fun c ->
        Chan.write_string c "question";
        ignore (Chan.read_exact c 6))
      (fun s ->
        ignore (Chan.read_exact s 8);
        Chan.write_string s "answer")
  in
  check Alcotest.string "c2s" "question" (Mitm.captured mitm Mitm.Client_to_server);
  check Alcotest.string "s2c" "answer" (Mitm.captured mitm Mitm.Server_to_client)

let () =
  Alcotest.run "wedge_net"
    [
      ( "chan",
        [
          Alcotest.test_case "partial reads" `Quick test_partial_reads;
          Alcotest.test_case "read_exact across writes" `Quick test_read_exact_across_writes;
          Alcotest.test_case "eof mid message" `Quick test_read_exact_eof_mid_message;
          Alcotest.test_case "write after close" `Quick test_write_after_close_rejected;
          Alcotest.test_case "rtt charging" `Quick test_blocking_read_charges_rtt;
          Alcotest.test_case "bytes in flight" `Quick test_bytes_in_flight;
          Alcotest.test_case "listener shutdown" `Quick test_listener_shutdown;
          Alcotest.test_case "listener queueing" `Quick test_listener_queueing;
          Alcotest.test_case "write_sub sends its range" `Quick test_write_sub_range;
          Alcotest.test_case "write_sub truncated" `Quick test_write_sub_truncate;
          Alcotest.test_case "ring grows to fit" `Quick test_ring_grows_to_fit;
          prop_read_through_capacity_watermark;
        ] );
      ( "lineio",
        [
          Alcotest.test_case "line termination styles" `Quick test_lineio_lines;
          Alcotest.test_case "empty lines" `Quick test_lineio_empty_lines;
          Alcotest.test_case "eof right after cr" `Quick test_lineio_eof_cr_tail;
          Alcotest.test_case "lines + exact reads" `Quick test_lineio_read_exact_mixes_with_lines;
          Alcotest.test_case "write_line" `Quick test_lineio_write_line;
          Alcotest.test_case "exact read, 1 byte per recv" `Quick test_lineio_read_exact_one_byte_chunks;
          Alcotest.test_case "exact read leaves the next line" `Quick
            test_lineio_read_exact_leaves_next_line;
          Alcotest.test_case "exact read at EOF, n = 0, hostile n" `Quick
            test_lineio_read_exact_eof_and_edges;
          Alcotest.test_case "one host copy per line and body" `Quick test_lineio_host_words;
        ] );
      ( "mitm",
        [
          Alcotest.test_case "captures both directions" `Quick test_mitm_captures_both_directions;
        ] );
    ]
