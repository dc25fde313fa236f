(** Per-worker latency sample buffers.

    Each worker owns its buffers outright (no shared cache lines, unlike
    the shared [Stats.Histogram], whose 960/1024/1152 ns buckets are also
    too coarse around 1 us).  A buffer keeps every [stride]-th op's
    latency; when it fills it drops every other sample and doubles the
    stride, so it always holds a uniform subsample of the whole window
    in bounded memory.  Percentiles are computed exactly over the merged,
    stride-weighted samples after the workers join. *)

type t = {
  mutable buf : int array;
  mutable n : int;
  mutable mask : int;  (** stride - 1; sample when [count land mask = 0] *)
  mutable count : int;  (** ops of this class seen *)
}

let capacity = 1 lsl 19
let create ~mask = { buf = Array.make capacity 0; n = 0; mask; count = 0 }

(** [due t] — whether the next op of this class is to be timed. *)
let[@inline] due t =
  let c = t.count in
  t.count <- c + 1;
  c land t.mask = 0

let thin t =
  let half = t.n / 2 in
  for i = 0 to half - 1 do
    t.buf.(i) <- t.buf.(2 * i)
  done;
  t.n <- half;
  t.mask <- (2 * t.mask) + 1

let add t v =
  if t.n = capacity then thin t;
  t.buf.(t.n) <- v;
  t.n <- t.n + 1

type summary = {
  samples : int;  (** raw samples merged *)
  p50 : float;
  p99 : float;
  beyond_p99 : int;  (** raw samples above the p99 *)
}

(** Weighted percentiles over several workers' buffers; [None] when there
    are fewer than 10 samples beyond the p99. *)
let summarize (ts : t list) =
  let pairs =
    List.concat_map
      (fun t -> List.init t.n (fun i -> (t.buf.(i), t.mask + 1)))
      ts
    |> Array.of_list
  in
  Array.sort compare pairs;
  let n = Array.length pairs in
  let total = Array.fold_left (fun a (_, w) -> a + w) 0 pairs in
  let rank q =
    let target = q *. float_of_int total in
    let acc = ref 0 and i = ref 0 in
    while !i < n - 1 && float_of_int (!acc + snd pairs.(!i)) < target do
      acc := !acc + snd pairs.(!i);
      incr i
    done;
    !i
  in
  if n = 0 then None
  else
    let r99 = rank 0.99 in
    let beyond = n - 1 - r99 in
    if beyond < 10 then None
    else
      Some
        {
          samples = n;
          p50 = float_of_int (fst pairs.(rank 0.50));
          p99 = float_of_int (fst pairs.(r99));
          beyond_p99 = beyond;
        }
