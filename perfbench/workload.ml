(** The benchmark's workloads and their seeded inputs.

    Every input a run uses — the prefilled key set and each worker's
    operation stream — is generated here from the seed, before any
    measurement, into flat arrays.  The measured loop only cycles through
    those arrays, so the generator never runs inside a window and the
    ladder can replay the identical stream on other schemes.

    Ownership: every key has exactly one writer, [owner key].  Workers
    only insert/remove keys they own and keep an exact model of them, so
    each answer on an owned key can be checked while the other worker
    runs (see [Bench]). *)

module Rng = Hpbrcu_runtime.Rng

(** An operation is [key lsl 2 lor code]. *)
let op_get = 0

let op_insert = 1
let op_remove = 2
let[@inline] encode code key = (key lsl 2) lor code
let[@inline] code op = op land 3
let[@inline] key op = op lsr 2

type t = {
  name : string;
  shards : int;
  buckets : int;  (** per shard *)
  keys : int;  (** keyspace [0, keys) *)
  owner : int -> int;  (** the worker allowed to write a key *)
  stream_len : int array;  (** per worker, a power of two *)
  time_mask : int array;
      (** per worker: read the clock (window end, sub-window boundaries,
          unreclaimed sample) every [mask + 1] ops *)
  lat_mask : int array;
      (** per worker: initial latency-sampling stride minus one *)
  ladder_ops : int;  (** ops per ladder replay pass *)
  gen : Rng.t -> worker:int -> int;  (** draws one operation *)
}

let workers = 2

(* Zipf(theta) over ranks [0, n): the inverse-CDF table is built once per
   run; a rank is scrambled into a key by a seeded bijection of
   [0, 2^k), so the hot keys sit in unrelated buckets and shards. *)
let zipf_cdf ~n ~theta =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) theta);
    cdf.(i) <- !acc
  done;
  let total = !acc in
  Array.iteri (fun i c -> cdf.(i) <- c /. total) cdf;
  cdf

let zipf_rank cdf rng =
  let u = Rng.float rng in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let kv_zipf ~salt =
  let keys = 1 lsl 20 in
  let cdf = lazy (zipf_cdf ~n:keys ~theta:0.99) in
  let scramble r = ((r * 0x9E3779B1) lxor salt) land (keys - 1) in
  {
    name = "kv-zipf";
    shards = 4;
    buckets = 1 lsl 16;
    keys;
    owner = (fun k -> k land 1);
    stream_len = [| 1 lsl 20; 1 lsl 20 |];
    time_mask = [| 63; 63 |];
    lat_mask = [| 3; 3 |];
    ladder_ops = 1 lsl 17;
    gen =
      (fun rng ~worker ->
        let k = scramble (zipf_rank (Lazy.force cdf) rng) in
        let p = Rng.int rng 100 in
        if p < 90 then encode op_get k
        else
          let k = k land lnot 1 lor worker in
          encode (if p < 95 then op_insert else op_remove) k);
  }

(* kv-churn carries a 5% get share so that the read metrics every run
   reports are defined on it too; 95% of its ops still retire or
   allocate. *)
let kv_churn =
  let keys = 1 lsl 10 in
  {
    name = "kv-churn";
    shards = 1;
    buckets = 256;
    keys;
    owner = (fun k -> k land 1);
    stream_len = [| 1 lsl 18; 1 lsl 18 |];
    time_mask = [| 63; 63 |];
    lat_mask = [| 3; 3 |];
    ladder_ops = 1 lsl 17;
    gen =
      (fun rng ~worker ->
        let k = Rng.int rng keys in
        let p = Rng.int rng 100 in
        if p < 5 then encode op_get k
        else
          let k = k land lnot 1 lor worker in
          encode (if p < 50 then op_insert else op_remove) k);
  }

(* long-read: worker 0 only reads keys nobody writes (so every answer is
   known from the prefill); worker 1 only churns the [hot] smallest keys,
   which sort to the heads of the 4 bucket lists the reader walks. *)
let long_read =
  let keys = 1 lsl 14 and hot = 64 in
  {
    name = "long-read";
    shards = 1;
    buckets = 4;
    keys;
    owner = (fun k -> if k < hot then 1 else 0);
    stream_len = [| 1 lsl 12; 1 lsl 16 |];
    time_mask = [| 0; 63 |];
    lat_mask = [| 0; 3 |];
    ladder_ops = 512;
    gen =
      (fun rng ~worker ->
        if worker = 0 then encode op_get (hot + Rng.int rng (keys - hot))
        else
          encode
            (if Rng.bool rng then op_insert else op_remove)
            (Rng.int rng hot));
  }

let names = [ "kv-zipf"; "kv-churn"; "long-read" ]

let find ~seed = function
  | "kv-zipf" -> Some (kv_zipf ~salt:(Rng.next (Rng.create ~seed) land 0xFFFFF))
  | "kv-churn" -> Some kv_churn
  | "long-read" -> Some long_read
  | _ -> None

type inputs = {
  prefill : Bytes.t;  (** '\001' for keys present at window start *)
  prefill_keys : int array;  (** the present keys, descending *)
  streams : int array array;  (** per worker *)
}

(** Half the keys, chosen by the seed, are prefilled. *)
let inputs t ~seed =
  let root = Rng.create ~seed in
  let pre = Rng.split root in
  let prefill =
    Bytes.init t.keys (fun _ -> if Rng.bool pre then '\001' else '\000')
  in
  let streams =
    Array.init workers (fun w ->
        let rng = Rng.split root in
        Array.init t.stream_len.(w) (fun _ -> t.gen rng ~worker:w))
  in
  let prefill_keys =
    List.init t.keys (fun i -> t.keys - 1 - i)
    |> List.filter (fun k -> Bytes.get prefill k <> '\000')
    |> Array.of_list
  in
  { prefill; prefill_keys; streams }

(** The ladder's single-domain stream: the two workers' first ops
    interleaved, so it carries both workers' key classes. *)
let ladder_stream t inp =
  Array.init t.ladder_ops (fun j ->
      let s = inp.streams.(j land 1) in
      s.((j / 2) land (Array.length s - 1)))
