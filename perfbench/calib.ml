(** Host calibration, recorded with every run so that results can be read
    on another machine: hardware threads, the cost of [Clock.now_ns], the
    host's own 2-domain scaling ceilings (private work, and a shared
    [Atomic.incr]), and the spread of a fixed spin loop as the noise
    floor. *)

module Clock = Hpbrcu_runtime.Clock
module Sched = Hpbrcu_runtime.Sched

type t = {
  hw_threads : int;
  now_ns_cost : float;  (** ns per [Clock.now_ns] call *)
  private_scaling : float;  (** 2-domain / 1-domain throughput; ideal 2 *)
  atomic_scaling : float;  (** same, every op an incr of one shared atomic *)
  noise_floor_pct : float;  (** (max - min) / median of a fixed spin, % *)
}

let spin n =
  let x = ref 0 in
  for i = 1 to n do
    x := Sys.opaque_identity ((!x * 31) + i)
  done;
  ignore (Sys.opaque_identity !x)

(* Wall time of [body] run by [k] domains at once, as the slowest one. *)
let parallel k body =
  let times = Array.make k 0 in
  let go = Atomic.make 0 in
  Sched.run Sched.Domains ~nthreads:k (fun w ->
      Atomic.incr go;
      while Atomic.get go < k do
        Domain.cpu_relax ()
      done;
      let t0 = Clock.now_ns () in
      body ();
      times.(w) <- Clock.now_ns () - t0);
  float_of_int (Array.fold_left max 0 times)

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  a.(Array.length a / 2)

let run () =
  let calls = 1_000_000 in
  let t0 = Clock.now_ns () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (Clock.now_ns ()))
  done;
  let now_ns_cost = float_of_int (Clock.now_ns () - t0) /. float_of_int calls in
  let work = 4_000_000 in
  let private_scaling =
    2.0 *. parallel 1 (fun () -> spin work) /. parallel 2 (fun () -> spin work)
  in
  let shared = Atomic.make 0 and incrs = 1_000_000 in
  let bump () =
    for _ = 1 to incrs do
      Atomic.incr shared
    done
  in
  let atomic_scaling = 2.0 *. parallel 1 bump /. parallel 2 bump in
  let reps =
    Array.init 11 (fun _ ->
        let t0 = Clock.now_ns () in
        spin (work / 4);
        float_of_int (Clock.now_ns () - t0))
  in
  let lo = Array.fold_left min infinity reps
  and hi = Array.fold_left max 0.0 reps in
  {
    hw_threads = Domain.recommended_domain_count ();
    now_ns_cost;
    private_scaling;
    atomic_scaling;
    noise_floor_pct = 100.0 *. (hi -. lo) /. median reps;
  }

let metrics t =
  [
    ("host.hw_threads", float_of_int t.hw_threads, "count");
    ("host.now_ns_cost", t.now_ns_cost, "ns");
    ("host.private_scaling", t.private_scaling, "x");
    ("host.atomic_scaling", t.atomic_scaling, "x");
    ("host.noise_floor_pct", t.noise_floor_pct, "%");
  ]
