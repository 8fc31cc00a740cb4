(* Latency samples and failure accounting for one measured run.

   A failed connection (refused, shed, cut, wrong bytes, any exception)
   counts against [failed] and enters the latency sample as +infinity
   ([max_int]), so a run that fails some connections can never look
   faster for it. *)

let infinity_ns = max_int

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable latencies : int list;  (** simulated ns, newest first *)
  mutable first_error : string option;
}

let create () = { attempted = 0; failed = 0; latencies = []; first_error = None }

let record t = function
  | Ok ns ->
      t.attempted <- t.attempted + 1;
      t.latencies <- ns :: t.latencies
  | Error msg ->
      t.attempted <- t.attempted + 1;
      t.failed <- t.failed + 1;
      t.latencies <- infinity_ns :: t.latencies;
      if t.first_error = None then t.first_error <- Some msg

(* The rank [Bench_util.percentile] picks from [n] sorted samples. *)
let rank ~n p = max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int (n - 1)))))

(* Samples strictly above the reported rank.  A percentile is reported
   only with at least ten of them (choosing-metrics rule), so p99 needs
   n >= 1001. *)
let beyond ~n p = if n = 0 then 0 else n - 1 - rank ~n p
let tail_ok ~n p = beyond ~n p >= 10

(* Add [s]'s connections to [into]. *)
let add into s =
  into.attempted <- into.attempted + s.attempted;
  into.failed <- into.failed + s.failed;
  into.latencies <- s.latencies @ into.latencies;
  if into.first_error = None then into.first_error <- s.first_error

let sorted t = List.sort compare t.latencies
let percentile sorted p = Bench_util.percentile sorted p
