(** The self-healing KV service ([smrbench serve]): a service-shaped
    workload with SLO verdicts, and the payoff cell of the reclamation
    supervisor (DESIGN.md §13).

    A (sharded) hash map plays a KV store: each shard owns a private
    reclamation domain; clients issue a read/write/range-scan mix over a
    Zipfian key distribution with optional key churn; fault plans inject
    the adversaries of the chaos harness (a reader crashed mid-section,
    stall storms, dropped signals).  On top sit the two robustness layers
    this experiment exists to exercise:

    - a {!Hpbrcu_runtime.Watchdog} fiber supervising every shard through
      {!Hpbrcu_core.Smr_intf.Supervise}, with the recycle rung implemented
      here as a {e generation} swap: when the ladder reaches the top, the
      shard's domain is force-destroyed and a fresh domain + empty map
      takes its place (self-healing-cache semantics — the shard's contents
      are repopulated by subsequent writes, like any cache node restart);
    - allocation backpressure ({!Hpbrcu_alloc.Alloc.Admission}): each
      domain gets an admission limit, so writers over a ballooning domain
      block-then-retry boundedly and shed writes instead of outrunning the
      supervisor.

    The verdict is a service-level objective: p99/p999 request latency (in
    virtual ticks) and the peak retired-but-unreclaimed watermark against
    a budget, plus zero use-after-frees and the expected crash count.  The
    headline discriminator mirrors the paper's robustness story: under a
    crashed-reader plan, RCU/EBR with the watchdog {b on} stays within the
    watermark budget (the trace shows [watchdog-recycle]) while {b off} it
    exceeds the on-peak several times over; HP-BRCU passes the same SLO
    with the ladder never escalating past the nudge rung, because its
    bounded sections + neutralization make the nudge itself sufficient.

    On the fiber substrate everything is a pure function of the seed:
    requests, faults, ladder walks and backoff jitter all draw from
    seeded generators under the deterministic scheduler, so a traced run
    replays byte-identically ({!check}'s replay probe asserts it).  On
    the Domains backend the same plans inject against real parallelism
    (crash = a worker domain parked pinned, watchdog rounds paced on
    [Clock.now_ns]) and the verdicts are statistical: watermark within
    budget, recycle observed, UAF = 0, expected crash count — never
    byte-replay. *)

module Alloc = Hpbrcu_alloc.Alloc
module Sched = Hpbrcu_runtime.Sched
module Rng = Hpbrcu_runtime.Rng
module Fault = Hpbrcu_runtime.Fault
module Trace = Hpbrcu_runtime.Trace
module Stats = Hpbrcu_runtime.Stats
module Watchdog = Hpbrcu_runtime.Watchdog
module Config = Hpbrcu_core.Config
module SI = Hpbrcu_core.Smr_intf
module Dom = SI.Dom
module Schemes = Hpbrcu_schemes.Schemes
module Ds = Hpbrcu_ds

(* ------------------------------------------------------------------ *)
(* Parameters                                                          *)
(* ------------------------------------------------------------------ *)

type params = {
  shards : int;  (** power of two *)
  buckets_per_shard : int;
  keys : int;
  theta : float;  (** Zipf skew (0 = uniform; 0.99 = YCSB-style) *)
  clients : int;  (** tid 0 is the victim under crash plans *)
  requests : int;  (** per client *)
  read_pct : int;
  write_pct : int;  (** scan share is the remainder *)
  scan_len : int;  (** keys touched by one range scan *)
  churn_period : int;  (** requests between key-space rotations; 0 = off *)
  budget : int;  (** peak-unreclaimed watermark SLO (whole service) *)
  slo_p99 : int;  (** request-latency SLO, virtual ticks *)
  slo_p999 : int;
  watchdog : bool;
  backpressure : bool;
  crash_at : int;  (** victim's crashing yield index (crash plans) *)
  tick_budget : int;
  seed : int;
  switch_every : int;
}

let default_params =
  {
    shards = 4;
    buckets_per_shard = 16;
    keys = 512;
    theta = 0.99;
    clients = 4;
    requests = 4000;
    read_pct = 70;
    write_pct = 25;
    scan_len = 8;
    churn_period = 500;
    budget = 150;
    slo_p99 = 600;
    slo_p999 = 3000;
    watchdog = true;
    backpressure = true;
    crash_at = 800;
    tick_budget = 8_000_000;
    seed = 1;
    switch_every = 4;
  }

let quick p = { p with requests = 1500 }

(* Small batches so watermarks track stranding, not the batch floor (same
   tuning as the shards experiment). *)
let config =
  {
    Config.default with
    batch = 32;
    max_local_tasks = 16;
    backup_period = 32;
    max_steps = 32;
  }

(* Supervisor tuning derived from the watermark budget: a shard domain is
   "laggard" above its share of the budget, and the ladder is tight
   enough to recycle well before the whole-service budget is spent. *)
let watchdog_config (p : params) =
  {
    (Watchdog.default_config ~threshold:(max 12 (p.budget / 8))) with
    Watchdog.poll_every = 12;
    nudge_deadline = 1;
    resend_deadline = 2;
    quarantine_deadline = 1;
  }

(* Backpressure: each domain individually admits up to half the service
   budget; combined with the supervisor threshold at a quarter, writers
   shed only when the ladder is already several rungs up. *)
let admission_limit (p : params) = max 8 (p.budget / 2)

(* ------------------------------------------------------------------ *)
(* Fault plans                                                         *)
(* ------------------------------------------------------------------ *)

let plan_names = [ "none"; "crash-reader"; "crash-two"; "stall-storm"; "signal-chaos" ]

let plan_of_name (p : params) = function
  | "none" -> Fault.no_faults
  | "crash-reader" ->
      {
        Fault.label = "crash-reader";
        rules =
          [
            {
              Fault.site = Yield;
              tid = 0;
              start = p.crash_at;
              period = 0;
              action = Crash;
            };
          ];
      }
  | "crash-two" ->
      {
        Fault.label = "crash-two";
        rules =
          [
            { Fault.site = Yield; tid = 0; start = p.crash_at; period = 0; action = Crash };
            {
              Fault.site = Yield;
              tid = 1;
              start = p.crash_at * 2;
              period = 0;
              action = Crash;
            };
          ];
      }
  | "stall-storm" ->
      {
        Fault.label = "stall-storm";
        rules =
          [
            {
              Fault.site = Yield;
              tid = -1;
              start = 200;
              period = 97;
              action = Stall 40;
            };
          ];
      }
  | "signal-chaos" ->
      {
        Fault.label = "signal-chaos";
        rules =
          [
            { Fault.site = Signal_send; tid = -1; start = 3; period = 7; action = Drop_signal };
            {
              Fault.site = Signal_send;
              tid = -1;
              start = 5;
              period = 11;
              action = Delay_signal 30;
            };
          ];
      }
  | s -> invalid_arg ("unknown fault plan: " ^ s ^ " (" ^ String.concat "/" plan_names ^ ")")

(* ------------------------------------------------------------------ *)
(* Zipf sampling                                                       *)
(* ------------------------------------------------------------------ *)

(* Precomputed CDF + binary search; rank 0 is the hottest key.  Built
   once per run, sampled with the worker's seeded rng. *)
let zipf_cdf ~n ~theta =
  let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** theta)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_sample cdf rng =
  let u = Rng.float rng in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* ------------------------------------------------------------------ *)
(* Shards as generations                                               *)
(* ------------------------------------------------------------------ *)

(* A session on one shard's current generation, as closures: the map
   and scheme types stay hidden, since a recycle swaps them out with the
   generation. *)
type sess = {
  k_get : int -> bool;
  k_insert : int -> int -> bool;
  k_remove : int -> bool;
  k_close : unit -> unit;
}

(* One generation: a private domain, a map bound to it, and the watchdog
   probes over it.  [g_opens] counts open sessions per tid — the recycle
   precondition is that every open session belongs to a crashed worker
   (crashed workers never touch memory again, so destroying under them is
   exactly the force-destroy contract).  Atomic slots: under the Domains
   backend the counts are written by client domains and read by the
   supervisor domain racing a live recycle. *)
type gen = {
  g_meta : Dom.t;
  g_opens : int Atomic.t array;
  g_open : int -> sess;
  g_probe : unit -> Watchdog.probe;
  g_nudge : unit -> unit;
  g_resend : unit -> bool;
  g_stats : unit -> Stats.snapshot;
  g_destroy : unit -> unit;
}

type shard = {
  sh_id : int;
  sh_gen : gen Atomic.t;
      (** the live generation; swapped by the supervisor's recycle rung
          while client domains are concurrently dereferencing it *)
  mutable sh_recycles : int;  (* supervisor-only; read after join *)
  mutable sh_retired_peak : int;  (** worst peak among recycled generations *)
}

(* Build one generation.  Runtime functor application; the bucket flavour
   is {!Matrix.bucket_list}'s. *)
let make_gen (module X : SI.SCHEME) ~label ~buckets ~slots ~limit cfg : gen =
  let d = X.create ~label cfg in
  let meta = X.dom d in
  if limit > 0 then Alloc.Admission.set_limit (Dom.id meta) limit;
  let opens = Array.init slots (fun _ -> Atomic.make 0) in
  let module Sup = SI.Supervise (X) in
  let current () = d in
  let mk_open session ~get ~insert ~remove ~close tid =
    let s = session () in
    Atomic.incr opens.(tid);
    {
      k_get = (fun k -> get s k);
      k_insert = (fun k v -> insert s k v);
      k_remove = (fun k -> remove s k);
      k_close =
        (fun () ->
          Atomic.decr opens.(tid);
          close s);
    }
  in
  let g_open =
    let module B = (val Matrix.buckets ((module X), cfg)) in
    let module M = Ds.Hashmap.Make_gen (B) (X) in
    let m = M.create_sized d buckets in
    mk_open
      (fun () -> M.session m)
      ~get:(fun s k -> M.get m s k)
      ~insert:(fun s k v -> M.insert m s k v)
      ~remove:(fun s k -> M.remove m s k)
      ~close:M.close_session
  in
  {
    g_meta = meta;
    g_opens = opens;
    g_open;
    g_probe = Sup.probe current;
    g_nudge = Sup.nudge current;
    g_resend = Sup.resend current;
    g_stats = (fun () -> if Dom.destroyed meta then Stats.empty else X.stats d);
    g_destroy =
      (fun () ->
        if not (Dom.destroyed meta) then begin
          Alloc.Admission.set_limit (Dom.id meta) 0;
          X.destroy ~force:true d
        end);
  }

(* The recycle rung: defer while any open session belongs to a live
   (non-crashed) worker; otherwise swap in a fresh generation FIRST (so
   workers racing past the swap only ever see the new domain), then
   force-destroy the old one under its dead readers.  A live worker that
   read the old generation just before the swap registers against a
   destroyed domain and gets the typed [Dom.Destroyed], which the client
   loop absorbs with a bounded retry — that race is the domains-mode
   recycle test's subject. *)
let try_recycle make (sh : shard) () =
  let g = Atomic.get sh.sh_gen in
  let blocked = ref false in
  Array.iteri
    (fun tid n ->
      if Atomic.get n > 0 && not (Sched.is_crashed tid) then blocked := true)
    g.g_opens;
  if !blocked then false
  else begin
    sh.sh_retired_peak <- max sh.sh_retired_peak (Dom.peak_unreclaimed g.g_meta);
    Atomic.set sh.sh_gen (make (sh.sh_recycles + 1));
    g.g_destroy ();
    sh.sh_recycles <- sh.sh_recycles + 1;
    true
  end

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type verdict = {
  v_latency : bool;
  v_watermark : bool;
  v_safety : bool;  (** zero UAFs and the plan's expected crash count *)
  v_ok : bool;
}

type result = {
  scheme : string;
  plan : string;
  p : params;
  served : int;  (** requests that completed (not shed, not deadline-cut) *)
  shed : int;  (** writes refused by backpressure *)
  retries : int;  (** requests re-run after losing a domain to a recycle *)
  lat : Stats.Histogram.summary;  (** all served requests *)
  lat_scan : Stats.Histogram.summary;
  lat_unit : string;  (** ["tick"] under fibers, ["ns"] under domains *)
  peak : int;  (** whole-service peak unreclaimed over the window *)
  final_unreclaimed : int;
  shard_peaks : int array;  (** per shard: worst generation's peak *)
  recycles : int;
  worst_rung : Watchdog.level;
  wd : Watchdog.counts;
  bp_waits : int;
  bp_rejects : int;
  crashes : int;
  uaf : int;
  deadline_hit : bool;
  snap : Stats.snapshot;  (** scheme counters + watchdog/backpressure merge *)
  verdict : verdict;
}

(* ------------------------------------------------------------------ *)
(* The cell                                                            *)
(* ------------------------------------------------------------------ *)

let pow2_ge n =
  let s = ref 1 in
  while !s < n do
    s := !s * 2
  done;
  !s

(* Fail-safe wall deadline for domains-mode service runs: requests bound
   the work, but a deadlock (e.g. a crash handshake waiting on a victim
   that never parks) must surface as a deadline verdict, not a hang. *)
let domains_wall_budget_s = 60.

let run_one ?(scheme = "RCU") ?(plan = "none") ?(substrate = `Fibers)
    (p : params) : result =
  (* Fault plans inject on both substrates (Fault's wall-clock dual); the
     SLO units follow the substrate — virtual ticks under fibers, wall
     nanoseconds under domains, where the tick-denominated latency SLO is
     not evaluated (watermark and safety SLOs are substrate-independent,
     and domains-mode verdicts are statistical, never byte-replay). *)
  (* NBR-Large is NBR under the paper's 8192-entry batches; every other
     name resolves directly.  The huge batch is the point: it trades the
     watermark for throughput, and the verdict table shows the cost. *)
  let impl_name = if scheme = "NBR-Large" then "NBR" else scheme in
  let config =
    if scheme = "NBR-Large" then
      { config with Config.batch = Config.large_batch.Config.batch }
    else config
  in
  let impl =
    match Schemes.find_impl impl_name with
    | Some i -> i
    | None -> invalid_arg ("unknown scheme: " ^ scheme)
  in
  let (module X : SI.SCHEME) = impl in
  let nshards = pow2_ge (max 1 p.shards) in
  let shard_mask = nshards - 1 in
  let pl = plan_of_name p plan in
  Alloc.reset ();
  Alloc.set_strict false;
  Alloc.Admission.clear_all ();
  let nthreads = p.clients + if p.watchdog then 1 else 0 in
  let limit = if p.backpressure then admission_limit p else 0 in
  let mk_gen sh_id generation =
    make_gen
      (module X)
      ~label:(Printf.sprintf "serve:%s:shard%d.g%d" scheme sh_id generation)
      ~buckets:p.buckets_per_shard ~slots:(p.clients + 2) ~limit config
  in
  let shards =
    Array.init nshards (fun i ->
        {
          sh_id = i;
          sh_gen = Atomic.make (mk_gen i 0);
          sh_recycles = 0;
          sh_retired_peak = 0;
        })
  in
  let gen_of i = Atomic.get shards.(i).sh_gen in
  (* Same multiplicative hash as the hash map's bucket routing, so
     consecutive scan keys spread over shards (scans hold several shard
     sessions at once — the long-op stressor). *)
  let shard_of k = (k * 0x2545F4914F6CDD1D lsr 17) land shard_mask in
  (* Prefill to 50% occupancy before faults arm or peaks are measured. *)
  let prefill_tid = p.clients + 1 in
  let psess = Array.init nshards (fun i -> (gen_of i).g_open prefill_tid) in
  let k = ref 0 in
  while !k < p.keys do
    ignore (psess.(shard_of !k).k_insert !k 0 : bool);
    k := !k + 2
  done;
  Array.iter (fun s -> s.k_close ()) psess;
  Alloc.reset_peak ();
  Alloc.reset_owner_peaks ();
  (* Workload state. *)
  let cdf = zipf_cdf ~n:(max 1 p.keys) ~theta:p.theta in
  (* Request-latency clock: virtual ticks under fibers (the SLO unit),
     wall nanoseconds under domains. *)
  let now =
    match substrate with
    | `Fibers -> Sched.tick
    | `Domains -> Hpbrcu_runtime.Clock.now_ns
  in
  let lat = Stats.Histogram.make () in
  let lat_scan = Stats.Histogram.make () in
  let served = Array.make (p.clients + 1) 0 in
  let shed = Array.make (p.clients + 1) 0 in
  let retries = Array.make (p.clients + 1) 0 in
  (* Atomic: under the domain substrate two clients can finish at once,
     and a lost increment would strand the watchdog's [until] predicate. *)
  let done_clients = Atomic.make 0 in
  (* Atomic for the same reason: any client domain can hit the deadline. *)
  let deadline_hit = Atomic.make false in
  let wd =
    Watchdog.create ~seed:(p.seed lxor 0xd09) (watchdog_config p)
      (Array.to_list
         (Array.map
            (fun sh ->
              {
                Watchdog.label = Printf.sprintf "shard%d" sh.sh_id;
                id = sh.sh_id;
                probe = (fun () -> (Atomic.get sh.sh_gen).g_probe ());
                nudge = (fun () -> (Atomic.get sh.sh_gen).g_nudge ());
                resend = (fun () -> (Atomic.get sh.sh_gen).g_resend ());
                quarantine = (fun () -> 0);
                recycle = Some (try_recycle (mk_gen sh.sh_id) sh);
              })
            shards))
  in
  let client tid =
    let rng = Rng.create ~seed:(p.seed + (tid * 104729)) in
    let scan_share = max 0 (100 - p.read_pct - p.write_pct) in
    let churn = ref 0 in
    (* Per-request shard-session cache: reads/writes open one shard, scans
       up to [scan_len]; everything closes at request end so no session
       outlives a request (which is what keeps recycle windows short). *)
    let cache : sess option array = Array.make nshards None in
    let close_cache () =
      Array.iteri
        (fun i s ->
          match s with
          | None -> ()
          | Some s ->
              cache.(i) <- None;
              (try s.k_close () with Dom.Destroyed _ -> ()))
        cache
    in
    let get_sess i =
      match cache.(i) with
      | Some s -> s
      | None ->
          let s = (gen_of i).g_open tid in
          cache.(i) <- Some s;
          s
    in
    let key rank = (rank + !churn) mod p.keys in
    let run_request req =
      if p.churn_period > 0 && req mod p.churn_period = 0 then
        churn := !churn + (p.keys / 8);
      let r = Rng.int rng 100 in
      let rank = zipf_sample cdf rng in
      let t0 = now () in
      let ok = ref true in
      let scan = r >= p.read_pct + p.write_pct && scan_share > 0 in
      if r < p.read_pct || (not scan) && p.write_pct = 0 then begin
        let k = key rank in
        ignore ((get_sess (shard_of k)).k_get k : bool)
      end
      else if not scan then begin
        let k = key rank in
        let i = shard_of k in
        let s = get_sess i in
        if limit > 0 then begin
          match Alloc.Admission.admit ~owner:(Dom.id (gen_of i).g_meta) () with
          | Alloc.Admission.Admitted ->
              if Rng.bool rng then ignore (s.k_insert k tid : bool)
              else ignore (s.k_remove k : bool)
          | Alloc.Admission.Backpressure _ ->
              shed.(tid) <- shed.(tid) + 1;
              ok := false
        end
        else if Rng.bool rng then ignore (s.k_insert k tid : bool)
        else ignore (s.k_remove k : bool)
      end
      else
        for j = 0 to p.scan_len - 1 do
          let k = key (rank + j) in
          ignore ((get_sess (shard_of k)).k_get k : bool)
        done;
      close_cache ();
      if !ok then begin
        served.(tid) <- served.(tid) + 1;
        let dt = now () - t0 in
        Stats.Histogram.record lat dt;
        if scan then Stats.Histogram.record lat_scan dt
      end
    in
    (try
       (* Domains-mode crash plans: non-victim clients hold until every
          victim is parked pinned, so the stranding window covers their
          full request volume regardless of OS scheduling (the fiber
          substrate achieves the same with the early crash index). *)
       (match substrate with
       | `Domains ->
           let victims = Fault.crash_tids pl in
           let n = List.length victims in
           if n > 0 && not (List.mem tid victims) then
             Sched.wait_until (fun () -> Fault.parked_count () >= n)
       | `Fibers -> ());
       for req = 1 to p.requests do
         (* A recycle can destroy a domain between reading [sh_gen] and
            registering on it; the typed [Destroyed] tells the client to
            drop its cached sessions and re-run against the fresh
            generation. *)
         let rec attempt tries =
           try run_request req
           with Dom.Destroyed _ ->
             close_cache ();
             if tries < 3 then begin
               retries.(tid) <- retries.(tid) + 1;
               attempt (tries + 1)
             end
         in
         attempt 0
       done
     with Sched.Deadline ->
       close_cache ();
       Atomic.set deadline_hit true);
    Atomic.incr done_clients
  in
  Fault.install pl;
  (* The tick deadline only advances under the simulator; domain runs are
     bounded by their request budgets, with a fail-safe wall deadline so
     a wedged handshake degrades to a deadline verdict. *)
  (match substrate with
  | `Fibers -> Sched.set_tick_deadline p.tick_budget
  | `Domains ->
      Sched.set_deadline (Unix.gettimeofday () +. domains_wall_budget_s));
  let body tid =
    if tid < p.clients then client tid
    else
      Watchdog.run wd ~until:(fun () ->
          Atomic.get done_clients + Sched.crashed_count () >= p.clients)
  in
  (match substrate with
  | `Fibers ->
      Sched.run
        (Sched.Fibers { seed = p.seed; switch_every = p.switch_every })
        ~nthreads body
  | `Domains -> Sched.run Sched.Domains ~nthreads body);
  Sched.clear_tick_deadline ();
  Sched.clear_deadline ();
  let crashes = Sched.crashed_count () in
  Fault.clear ();
  let st = Alloc.stats () in
  (* Per-shard worst peaks: live generation vs recycled ancestors, read
     before destroy releases the slots. *)
  let shard_peaks =
    Array.map
      (fun sh ->
        max sh.sh_retired_peak
          (Dom.peak_unreclaimed (Atomic.get sh.sh_gen).g_meta))
      shards
  in
  (* Scheme counters summed over the live generations, then the watchdog
     and backpressure tallies merged in. *)
  let snap =
    Array.fold_left
      (fun acc sh -> Stats.add acc ((Atomic.get sh.sh_gen).g_stats ()))
      Stats.empty shards
  in
  let snap =
    Stats.add snap
      {
        (Watchdog.counts_to_snapshot (Watchdog.counts wd)) with
        Stats.backpressure_waits = Alloc.Admission.wait_count ();
        backpressure_rejects = Alloc.Admission.reject_count ();
      }
  in
  (* Flight-recorder drop lanes + census identity, as in Cell_runner. *)
  let snap =
    match substrate with
    | `Domains when Trace.enabled () && Trace.sink () = Trace.Flight ->
        let ok, msg = Trace.flight_census () in
        if not ok then failwith ("Kvservice: " ^ msg);
        { snap with Stats.trace_dropped = Trace.dropped () }
    | _ -> snap
  in
  Array.iter (fun sh -> (Atomic.get sh.sh_gen).g_destroy ()) shards;
  Alloc.Admission.clear_all ();
  let expected_crashes =
    match plan with "crash-reader" -> 1 | "crash-two" -> 2 | _ -> 0
  in
  let lat_s = Stats.Histogram.summary lat in
  let v_latency =
    match substrate with
    | `Fibers ->
        lat_s.Stats.Histogram.p99 <= p.slo_p99
        && lat_s.Stats.Histogram.p999 <= p.slo_p999
    | `Domains ->
        (* The SLO thresholds are in virtual ticks; the domain run's
           histograms are in nanoseconds, so the comparison would be
           meaningless.  The watermark/safety verdicts still apply. *)
        true
  in
  let v_watermark = st.Alloc.peak_unreclaimed <= p.budget in
  let v_safety = st.Alloc.uaf = 0 && crashes = expected_crashes in
  {
    scheme;
    plan;
    p;
    served = Array.fold_left ( + ) 0 served;
    shed = Array.fold_left ( + ) 0 shed;
    retries = Array.fold_left ( + ) 0 retries;
    lat = lat_s;
    lat_scan = Stats.Histogram.summary lat_scan;
    lat_unit = (match substrate with `Fibers -> "tick" | `Domains -> "ns");
    peak = st.Alloc.peak_unreclaimed;
    final_unreclaimed = st.Alloc.unreclaimed;
    shard_peaks;
    recycles = Array.fold_left (fun a sh -> a + sh.sh_recycles) 0 shards;
    worst_rung = Watchdog.worst_level wd;
    wd = Watchdog.counts wd;
    bp_waits = Alloc.Admission.wait_count ();
    bp_rejects = Alloc.Admission.reject_count ();
    crashes;
    uaf = st.Alloc.uaf;
    deadline_hit = Atomic.get deadline_hit;
    snap;
    verdict =
      {
        v_latency;
        v_watermark;
        v_safety;
        v_ok =
          v_latency && v_watermark && v_safety
          && not (Atomic.get deadline_hit);
      };
  }

(* ------------------------------------------------------------------ *)
(* Traced runs and the replay probe                                    *)
(* ------------------------------------------------------------------ *)

let run_traced ?scheme ?plan ?(substrate = `Fibers) (p : params) :
    result * Trace.record list =
  (match substrate with
  | `Fibers -> Trace.enable ~sink:Trace.Spool ()
  | `Domains ->
      (* Clients + watchdog worker; the flight recorder merges their rings
         (and the Runtime_events GC track) in calibrated ns at dump. *)
      Trace.enable ~sink:Trace.Flight ~ndomains:(p.clients + 1) ());
  let r = run_one ?scheme ?plan ~substrate p in
  let records = Trace.dump () in
  Trace.disable ();
  (r, records)

let run_traced_to_file ?scheme ?plan ?(substrate = `Fibers) ~path (p : params) :
    result =
  let r, records = run_traced ?scheme ?plan ~substrate p in
  let unit_ = match substrate with `Fibers -> None | `Domains -> Some "ns" in
  Trace.to_file ?unit_ path records;
  r

(** Seed-determinism probe: two traced runs of the same cell must produce
    identical event logs (and so identical verdicts). *)
let replay_identical ?scheme ?plan (p : params) : bool =
  let _, a = run_traced ?scheme ?plan p in
  let _, b = run_traced ?scheme ?plan p in
  a = b

(* ------------------------------------------------------------------ *)
(* The watchdog-payoff comparison (the check.sh gate)                  *)
(* ------------------------------------------------------------------ *)

type compare_result = {
  on_run : result;
  off_run : result;
  off_over_on : float;  (** watchdog-off peak / watchdog-on peak *)
  cmp_ratio : float;  (** the threshold the verdict was gated against *)
  replay_ok : bool;
  cmp_ok : bool;
}

let default_off_ratio = 5.

(* Real parallelism reclaims opportunistically between the crash and the
   first supervisor round, so the off/on gap on hardware is genuine but
   noisier than the simulator's; the domains default matches the shards
   experiment's schedule-aware threshold. *)
let default_off_ratio_domains = 3.

(** [run_compare ~scheme ~plan p] — the headline self-healing assertion:
    with the watchdog on, the fault keeps the watermark within budget and
    the trace shows recycles; off, the watermark exceeds the on-peak by
    at least [ratio]; both runs are UAF-free.  On the fiber substrate the
    on-run must additionally replay byte-identically; on the Domains
    backend the verdict is statistical and the replay probe is vacuously
    true (there is no byte-replay to compare). *)
let run_compare ?ratio ?(scheme = "RCU") ?(plan = "crash-reader")
    ?(substrate = `Fibers) (p : params) : compare_result =
  let ratio =
    match ratio with
    | Some r -> r
    | None -> (
        match substrate with
        | `Fibers -> default_off_ratio
        | `Domains -> default_off_ratio_domains)
  in
  let on_run = run_one ~scheme ~plan ~substrate { p with watchdog = true } in
  let off_run =
    run_one ~scheme ~plan ~substrate
      { p with watchdog = false; backpressure = false }
  in
  (* Ballooning metric, per substrate.  Under fibers the off-run's peak
     towers over the on-run's at a fixed virtual tick, so the peak ratio
     is the sharp signal.  Under domains, wall-clock scheduling smears
     both peaks (opportunistic reclamation between crash and supervisor
     round), but the *final* watermark is scheduling-proof: the crashed
     shard's garbage is unreclaimable without a recycle, so the off-run
     ends ballooned while a healed on-run drains back toward zero. *)
  let off_over_on =
    match substrate with
    | `Fibers -> float_of_int off_run.peak /. float_of_int (max 1 on_run.peak)
    | `Domains ->
        float_of_int off_run.final_unreclaimed
        /. float_of_int (max 1 on_run.final_unreclaimed)
  in
  let replay_ok =
    match substrate with
    | `Fibers -> replay_identical ~scheme ~plan { p with watchdog = true }
    | `Domains -> true
  in
  {
    on_run;
    off_run;
    off_over_on;
    cmp_ratio = ratio;
    replay_ok;
    cmp_ok =
      on_run.verdict.v_watermark && on_run.recycles >= 1
      && off_over_on >= ratio && on_run.uaf = 0 && off_run.uaf = 0
      && replay_ok;
  }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let pp_verdict ppf (v : verdict) =
  let flag ppf b = Fmt.string ppf (if b then "pass" else "FAIL") in
  Fmt.pf ppf "latency=%a watermark=%a safety=%a => %s" flag v.v_latency flag
    v.v_watermark flag v.v_safety
    (if v.v_ok then "SLO PASS" else "SLO FAIL")

let pp ppf (r : result) =
  let pp_peaks ppf pks =
    Array.iteri
      (fun i pk -> Fmt.pf ppf "%s%d" (if i = 0 then "" else "/") pk)
      pks
  in
  Fmt.pf ppf
    "serve %s: plan=%s watchdog=%s backpressure=%s seed=%d@\n\
    \  served=%d shed=%d retries=%d crashes=%d uaf=%d%s@\n\
    \  latency (%-5s): %a@\n\
    \  scans:           %a@\n\
    \  watermark: peak=%d (budget %d), shard peaks %a, final=%d@\n\
    \  ladder: worst=%s nudges=%d resends=%d quarantined=%d recycles=%d; \
     backpressure waits=%d rejects=%d@\n\
    \  %a"
    r.scheme r.plan
    (if r.p.watchdog then "on" else "off")
    (if r.p.backpressure then "on" else "off")
    r.p.seed r.served r.shed r.retries r.crashes r.uaf
    (if r.deadline_hit then " DEADLINE" else "")
    r.lat_unit Stats.Histogram.pp_summary r.lat Stats.Histogram.pp_summary
    r.lat_scan
    r.peak r.p.budget pp_peaks r.shard_peaks r.final_unreclaimed
    (Watchdog.level_name r.worst_rung)
    r.wd.Watchdog.nudges r.wd.Watchdog.resends r.wd.Watchdog.quarantined
    r.wd.Watchdog.recycles r.bp_waits r.bp_rejects pp_verdict r.verdict

let pp_compare ppf (c : compare_result) =
  (* Domains runs gate on the scheduling-proof final watermark; fiber
     runs on the virtual-tick peak (see run_compare). *)
  let metric, off_v, on_v =
    if c.on_run.lat_unit = "ns" then
      ("final", c.off_run.final_unreclaimed, c.on_run.final_unreclaimed)
    else ("peak", c.off_run.peak, c.on_run.peak)
  in
  Fmt.pf ppf
    "%a@\n%a@\n\
     watchdog payoff: off-%s %d / on-%s %d = %.1fx (need >= %.0fx); \
     on-recycles=%d replay=%s => %s"
    pp c.on_run pp c.off_run metric off_v metric on_v c.off_over_on
    c.cmp_ratio c.on_run.recycles
    (if c.replay_ok then "identical" else "DIVERGED")
    (if c.cmp_ok then "OK" else "FAILED")

(** Rows for the report emitter / --stats-json. *)
let record (r : result) =
  Report.record_cell
    ([
       ("kind", Report.Json.Str "serve");
       ("scheme", Report.Json.Str r.scheme);
       ("plan", Report.Json.Str r.plan);
       ("watchdog", Report.Json.Bool r.p.watchdog);
       ("backpressure", Report.Json.Bool r.p.backpressure);
       ("seed", Report.Json.Int r.p.seed);
       ("served", Report.Json.Int r.served);
       ("shed", Report.Json.Int r.shed);
       ("retries", Report.Json.Int r.retries);
       ("lat_p50", Report.Json.Int r.lat.Stats.Histogram.p50);
       ("lat_p99", Report.Json.Int r.lat.Stats.Histogram.p99);
       ("lat_p999", Report.Json.Int r.lat.Stats.Histogram.p999);
       ("lat_max", Report.Json.Int r.lat.Stats.Histogram.max);
       ("peak", Report.Json.Int r.peak);
       ("budget", Report.Json.Int r.p.budget);
       ( "shard_peaks",
         Report.Json.List
           (Array.to_list (Array.map (fun x -> Report.Json.Int x) r.shard_peaks))
       );
       ("recycles", Report.Json.Int r.recycles);
       ("worst_rung", Report.Json.Str (Watchdog.level_name r.worst_rung));
       ("crashes", Report.Json.Int r.crashes);
       ("uaf", Report.Json.Int r.uaf);
       ("slo_ok", Report.Json.Bool r.verdict.v_ok);
     ]
    @ List.map
        (fun (k, v) -> (k, Report.Json.Int v))
        (Stats.to_fields ~keep_zeros:false r.snap))
