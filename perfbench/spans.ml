(** In-memory span buffers for the traced run.

    One preallocated buffer per owner (owner 0 = the main domain, owner
    [w + 1] = worker [w]), so recording never shares a cache line or
    allocates.  A span is (name, start, stop, parent id); ids are
    [owner lsl 40 lor index].  Per-op spans stop being stored once a
    buffer is nearly full, which keeps room for the few coarse spans
    (set-up, sessions, slices) of later reps; a span that is not stored
    is still summed into the per-name totals, and the drop is counted.
    Buffers are written out as Chrome trace-event JSON when the run
    ends. *)

module Clock = Hpbrcu_runtime.Clock

let names =
  [|
    "run";
    "setup";
    "setup.create";
    "setup.prefill";
    "schemes.register";
    "ds.get";
    "ds.insert";
    "ds.remove";
    "schemes.unregister";
    "runtime.spawn_join";
    "worker";
    "window";
    "window.traced";
    "check.content";
    "ladder.hashtbl";
    "ladder.nr";
    "ladder.rcu";
    "ladder.hpbrcu";
  |]

let id_of name =
  let rec go i =
    if i = Array.length names then invalid_arg ("Spans: unknown " ^ name)
    else if names.(i) = name then i
    else go (i + 1)
  in
  go 0

let run = id_of "run"
let setup = id_of "setup"
let setup_create = id_of "setup.create"
let setup_prefill = id_of "setup.prefill"
let register = id_of "schemes.register"
let ds_get = id_of "ds.get"
let unregister = id_of "schemes.unregister"
let spawn_join = id_of "runtime.spawn_join"
let worker = id_of "worker"
let window = id_of "window"
let window_traced = id_of "window.traced"
let check_content = id_of "check.content"

(** [ds_get + code] is the span of a map call with that op code. *)
let ds_of_code code = ds_get + code

type buf = {
  owner : int;
  name : int array;
  start : int array;
  stop : int array;
  parent : int array;
  mutable n : int;
  mutable dropped : int;
  total : int array;  (** per name: summed duration, stored or not *)
}

let capacity = 1 lsl 16

(** Stored per-op spans stop here; the rest of the buffer is for coarse
    spans. *)
let op_capacity = capacity - 1024

let create owner =
  {
    owner;
    name = Array.make capacity 0;
    start = Array.make capacity 0;
    stop = Array.make capacity 0;
    parent = Array.make capacity (-1);
    n = 0;
    dropped = 0;
    total = Array.make (Array.length names) 0;
  }

let none = -1

(** [open_ b name ~parent] starts a span now and returns its id (or
    [none] when the buffer is full). *)
let open_ b nm ~parent =
  if b.n = capacity then (
    b.dropped <- b.dropped + 1;
    none)
  else
    let i = b.n in
    b.n <- i + 1;
    b.name.(i) <- nm;
    b.parent.(i) <- parent;
    b.start.(i) <- Clock.now_ns ();
    b.stop.(i) <- -1;
    (b.owner lsl 40) lor i

let close b id =
  let t = Clock.now_ns () in
  if id <> none then (
    let i = id land ((1 lsl 40) - 1) in
    b.stop.(i) <- t;
    let nm = b.name.(i) in
    b.total.(nm) <- b.total.(nm) + (t - b.start.(i)))

let with_span b nm ~parent f =
  let id = open_ b nm ~parent in
  Fun.protect ~finally:(fun () -> close b id) (fun () -> f id)

(** Record an already-timed span (the per-op hot path). *)
let[@inline] record b nm ~parent t0 t1 =
  b.total.(nm) <- b.total.(nm) + (t1 - t0);
  if b.n >= op_capacity then b.dropped <- b.dropped + 1
  else
    let i = b.n in
    b.n <- i + 1;
    b.name.(i) <- nm;
    b.parent.(i) <- parent;
    b.start.(i) <- t0;
    b.stop.(i) <- t1

type span = { id : int; nm : int; t0 : int; t1 : int; par : int }

let spans bufs =
  List.concat_map
    (fun b ->
      List.init b.n (fun i ->
          {
            id = (b.owner lsl 40) lor i;
            nm = b.name.(i);
            t0 = b.start.(i);
            t1 = b.stop.(i);
            par = b.parent.(i);
          }))
    bufs
  |> List.filter (fun s -> s.t1 >= s.t0)

(* Length of the union of [intervals]. *)
let covered intervals =
  let sorted = List.sort compare intervals in
  let rec go acc cur = function
    | [] -> (
        match cur with None -> acc | Some (a, b) -> acc + (b - a))
    | (a, b) :: rest -> (
        match cur with
        | None -> go acc (Some (a, b)) rest
        | Some (ca, cb) when a <= cb -> go acc (Some (ca, max cb b)) rest
        | Some (ca, cb) -> go (acc + (cb - ca)) (Some (a, b)) rest)
  in
  go 0 None sorted

(** Self time per span: its duration minus the time its stored children
    cover.  Per-op children that were not stored are not subtracted; the
    traced slices' harness time is computed from [total] instead. *)
let self_times spans =
  let kids = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.par <> none then Hashtbl.add kids s.par (s.t0, s.t1))
    spans;
  List.map
    (fun s -> (s, s.t1 - s.t0 - covered (Hashtbl.find_all kids s.id)))
    spans

(** Chrome trace-event JSON (loadable in Perfetto), one track per owner. *)
let write_chrome path spans =
  let t_base = List.fold_left (fun m s -> min m s.t0) max_int spans in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}\n"
        (if i = 0 then "" else ",")
        names.(s.nm) (s.id lsr 40)
        (float_of_int (s.t0 - t_base) /. 1e3)
        (float_of_int (s.t1 - s.t0) /. 1e3)
        s.id s.par)
    spans;
  output_string oc "]}\n";
  close_out oc
