(** The repository benchmark: HP-BRCU sharded hash maps driven by two
    real [Domain.spawn] workers in a closed loop (each worker issues its
    next operation when the previous one returns, no think time).

    One invocation runs one workload (see [Workload]) and prints the
    end-to-end metrics, or with [--trace 1] the per-layer metrics, as a
    final JSON line.  README.md maps every per-layer metric to the
    end-to-end metric it should move.

    The benchmark touches the repository's libraries only through their
    public surface: [Schemes.find_impl], [SCHEME.create/destroy/stats],
    [Sharded_hashmap.Make], [Alloc.stats]/[Alloc.current_unreclaimed] and
    [Sched.run Sched.Domains].  Every layer timing is taken here, around
    calls into those functions. *)

module Alloc = Hpbrcu_alloc.Alloc
module Clock = Hpbrcu_runtime.Clock
module Sched = Hpbrcu_runtime.Sched
module Stats = Hpbrcu_runtime.Stats
module Config = Hpbrcu_core.Config
module Smr_intf = Hpbrcu_core.Smr_intf
module Sharded = Hpbrcu_ds.Sharded_hashmap
module Schemes = Hpbrcu_schemes.Schemes
module W = Workload

let nworkers = W.workers

(** A run builds this many maps from scratch and measures an equal slice
    of the window on each: set-up time is the median over them, and the
    layout luck of any one map (where its nodes landed in memory) is
    measured rather than frozen into the run. *)
let reps = 5

(** Each slice is cut into this many sub-windows; throughput and peak
    garbage are taken over all of them. *)
let nsub = 4

(** Cheap set-ups are repeated beyond [reps], without a measured slice,
    until they have taken [setup_budget_ns] in all (at most [max_setups]
    set-ups): a 2 ms set-up is mostly domain spawning, whose time varies
    by tens of percent from one spawn to the next. *)
let setup_budget_ns = 1_000_000_000

let max_setups = 64

(* ------------------------------------------------------------------ *)
(* Barrier                                                             *)
(* ------------------------------------------------------------------ *)

type barrier = { arrived : int Atomic.t; gen : int Atomic.t }

let barrier () = { arrived = Atomic.make 0; gen = Atomic.make 0 }

(** [await b ~last] — the last of the [nworkers] arrivals runs [last]
    while everyone else still waits, so [last] sees the map quiescent. *)
let await b ~last =
  let g = Atomic.get b.gen in
  if Atomic.fetch_and_add b.arrived 1 = nworkers - 1 then (
    Atomic.set b.arrived 0;
    last ();
    Atomic.set b.gen (g + 1))
  else
    while Atomic.get b.gen = g do
      Domain.cpu_relax ()
    done

(* ------------------------------------------------------------------ *)
(* Layer counters                                                      *)
(* ------------------------------------------------------------------ *)

(** Scheme counters summed over a map's shard domains. *)
type scheme_counts = {
  advances : int;
  advance_failures : int;
  forced_advances : int;
  signals : int;
  signal_timeouts : int;
  rollbacks : int;
  scans : int;
  scan_reclaimed : int;
  traverses : int;
  traverse_steps : int;
  traverse_resumes : int;
  validate_failures : int;
  max_epoch_lag : int;
}

let sum_stats (ss : Stats.snapshot list) =
  let f g = List.fold_left (fun a s -> a + g s) 0 ss in
  {
    advances = f (fun s -> s.Stats.advances);
    advance_failures = f (fun s -> s.Stats.advance_failures);
    forced_advances = f (fun s -> s.Stats.forced_advances);
    signals = f (fun s -> s.Stats.signals);
    signal_timeouts = f (fun s -> s.Stats.signal_timeouts);
    rollbacks = f (fun s -> s.Stats.rollbacks);
    scans = f (fun s -> s.Stats.scans);
    scan_reclaimed = f (fun s -> s.Stats.scan_reclaimed);
    traverses = f (fun s -> s.Stats.traverses);
    traverse_steps = f (fun s -> s.Stats.traverse_steps);
    traverse_resumes = f (fun s -> s.Stats.traverse_resumes);
    validate_failures = f (fun s -> s.Stats.validate_failures);
    max_epoch_lag =
      List.fold_left (fun a s -> max a s.Stats.max_epoch_lag) 0 ss;
  }

(** Everything read at a window boundary, while the workers wait. *)
type snap = {
  sc : scheme_counts;
  al : Alloc.stats;
  gc_minor : int;
  gc_major : int;
}

(* ------------------------------------------------------------------ *)
(* Workers                                                             *)
(* ------------------------------------------------------------------ *)

(** One worker's counts over every rep's slice of one kind (measured or
    traced).  Sub-window [j] of rep [r] is slot [r * nsub + j]. *)
type window = {
  mutable ops : int;
  mutable gets : int;
  sub_ops : int array;
  sub_gets : int array;
  sub_peak : int array;  (** max sampled unreclaimed within the sub-window *)
  mutable busy_ns : int;  (** summed slice durations *)
  mutable minor_words : float;
}

let new_window () =
  {
    ops = 0;
    gets = 0;
    sub_ops = Array.make (reps * nsub) 0;
    sub_gets = Array.make (reps * nsub) 0;
    sub_peak = Array.make (reps * nsub) 0;
    busy_ns = 0;
    minor_words = 0.0;
  }

type worker = {
  w : int;
  stream : int array;
  model : Bytes.t;  (** exact presence of the keys this worker owns *)
  owner : int -> int;
  tmask : int;
  mutable cursor : int;
  lat : Lat.t array;  (** 0 = gets, 1 = inserts/removes *)
  mutable failed : int;
  mutable errors : string list;  (** the first few failures, for the log *)
  mutable peak : int;  (** max sampled unreclaimed over the whole run *)
  spans : Spans.buf;
  mutable attempted : int;  (** window ops plus content-check gets *)
}

let fail wk msg =
  wk.failed <- wk.failed + 1;
  if List.length wk.errors < 5 then wk.errors <- msg :: wk.errors

let op_name c = [| "get"; "insert"; "remove" |].(c)

(* Check an answer on an owned key against the model, then apply the
   op to the model. *)
let check wk op r =
  let k = W.key op in
  if wk.owner k = wk.w then (
    let c = W.code op in
    let present = Bytes.unsafe_get wk.model k <> '\000' in
    let expect = if c = W.op_insert then not present else present in
    if r <> expect then
      fail wk
        (Printf.sprintf "worker %d: %s %d returned %b, expected %b" wk.w
           (op_name c) k r expect);
    if c = W.op_insert then Bytes.unsafe_set wk.model k '\001'
    else if c = W.op_remove then Bytes.unsafe_set wk.model k '\000')

(** A ladder rung's measurement: [exec] runs [ops] in 3 passes; ns/op is
    the median pass.  Returns the answers of every pass, for comparison
    across rungs. *)
let replay ops exec =
  let n = Array.length ops in
  let answers = Bytes.make (3 * n) '\000' in
  let times =
    Array.init 3 (fun pass ->
        let t0 = Clock.now_ns () in
        for j = 0 to n - 1 do
          if exec ops.(j) then Bytes.unsafe_set answers ((pass * n) + j) '\001'
        done;
        Clock.now_ns () - t0)
  in
  Array.sort compare times;
  (float_of_int times.(1) /. float_of_int n, answers)

(* ------------------------------------------------------------------ *)
(* The map under test, for one scheme                                  *)
(* ------------------------------------------------------------------ *)

module Make (X : Smr_intf.SCHEME) = struct
  module Sh = Sharded.Make (X)

  let create (wl : W.t) =
    Sh.create ~label:wl.name ~shards:wl.shards ~buckets_per_shard:wl.buckets
      Config.default

  (* [X.stats] of every shard's own domain, read from the map's [shards]
     record. *)
  let counts (m : Sh.t) =
    sum_stats (Array.to_list (Array.map (fun s -> X.stats s.Sh.sdom) m.Sh.shards))

  let snap m =
    let g = Gc.quick_stat () in
    {
      sc = counts m;
      al = Alloc.stats ();
      gc_minor = g.Gc.minor_collections;
      gc_major = g.Gc.major_collections;
    }

  let[@inline] exec m s op =
    let k = W.key op in
    match W.code op with
    | 0 -> Sh.get m s k
    | 1 -> Sh.insert m s k k
    | _ -> Sh.remove m s k

  (* Prefill, descending so each insert lands at a bucket head.  Worker 0
     inserts every key, so which domain allocated which node is the same
     on every run.  (Splitting the prefill between the workers makes the
     node layout depend on how they interleave; on long-read that
     widened the run-to-run spread of get latency to about 20%.) *)
  let prefill m s (keys : int array) =
    Array.iter (fun k -> ignore (Sh.insert m s k k)) keys

  (** The measured loop, for one slice.  [traced] times every call into
      the map as a span; otherwise only the latency samples' calls are
      timed. *)
  let run_window m s wk (win : window) ~traced ~parent ~sub0 ~t_start ~t_end =
    let sub_ns = max 1 ((t_end - t_start) / nsub) in
    let sub = ref 0 and next_sub = ref (t_start + sub_ns) in
    let sub_peak = ref 0 and stop = ref false in
    let start_ops = win.ops in
    let ops0 = ref win.ops and gets0 = ref win.gets in
    let len_mask = Array.length wk.stream - 1 in
    let mw0 = Gc.minor_words () in
    while not !stop do
      let i = wk.cursor in
      if i land wk.tmask = 0 then (
        let now = Clock.now_ns () in
        let u = Alloc.current_unreclaimed () in
        if u > !sub_peak then sub_peak := u;
        if u > wk.peak then wk.peak <- u;
        while !sub < nsub && now >= !next_sub do
          win.sub_ops.(sub0 + !sub) <- win.ops - !ops0;
          win.sub_gets.(sub0 + !sub) <- win.gets - !gets0;
          win.sub_peak.(sub0 + !sub) <- !sub_peak;
          ops0 := win.ops;
          gets0 := win.gets;
          sub_peak := u;
          incr sub;
          next_sub := !next_sub + sub_ns
        done;
        if now >= t_end then stop := true);
      if not !stop then (
        let op = Array.unsafe_get wk.stream (i land len_mask) in
        wk.cursor <- i + 1;
        let c = W.code op in
        (if traced then (
           let t0 = Clock.now_ns () in
           match exec m s op with
           | r ->
               Spans.record wk.spans (Spans.ds_of_code c) ~parent t0
                 (Clock.now_ns ());
               check wk op r
           | exception e -> fail wk (Printexc.to_string e))
         else
           let lat = wk.lat.(if c = W.op_get then 0 else 1) in
           if Lat.due lat then (
             let t0 = Clock.now_ns () in
             match exec m s op with
             | r ->
                 Lat.add lat (Clock.now_ns () - t0);
                 check wk op r
             | exception e -> fail wk (Printexc.to_string e))
           else
             match exec m s op with
             | r -> check wk op r
             | exception e -> fail wk (Printexc.to_string e));
        win.ops <- win.ops + 1;
        if c = W.op_get then win.gets <- win.gets + 1)
    done;
    win.minor_words <- win.minor_words +. (Gc.minor_words () -. mw0);
    win.busy_ns <- win.busy_ns + (Clock.now_ns () - t_start);
    wk.attempted <- wk.attempted + win.ops - start_ops

  (* After the windows: every key, split between the workers, must read
     as its owner's model says. *)
  let check_content m s wk (wks : worker array) =
    let keys = Bytes.length wk.model in
    let k = ref wk.w in
    while !k < keys do
      let owner = wks.(0).owner !k in
      let expect = Bytes.get wks.(owner).model !k <> '\000' in
      (match Sh.get m s !k with
      | r when r = expect -> ()
      | r ->
          fail wk
            (Printf.sprintf "content: get %d returned %b, owner %d's model says %b"
               !k r owner expect)
      | exception e -> fail wk (Printexc.to_string e));
      wk.attempted <- wk.attempted + 1;
      k := !k + nworkers
    done

  type outcome = {
    setup_ns : int array;
    sub_s : float;  (** sub-window length *)
    e2e : window array;  (** the measured slices, per worker *)
    traced : (window array * (snap * snap) list) option;
        (** the traced slices and each one's counters before and after *)
    census : string list;  (** violations *)
  }

  (** Build, measure, check and tear down [reps] maps in turn, then set up
      (and tear down) further maps while set-up is cheap. *)
  let run (wl : W.t) (inp : W.inputs) (wks : worker array) ~main ~run_span
      ~seconds ~trace ~plant =
    let setup_ns = ref [] in
    let e2e = Array.init nworkers (fun _ -> new_window ()) in
    let tw = Array.init nworkers (fun _ -> new_window ()) in
    let deltas = ref [] and census = ref [] in
    let slice_ns = seconds * 1_000_000_000 / reps / if trace then 2 else 1 in
    let audit ~rep ~plant when_ =
      let st = Alloc.stats () in
      let st = if plant then { st with Alloc.retired = st.retired + 1 } else st in
      let bad cond msg =
        if not cond then
          census := Printf.sprintf "rep %d %s: %s" rep when_ msg :: !census
      in
      bad (st.Alloc.uaf = 0) (Printf.sprintf "uaf=%d" st.uaf);
      bad (st.double_retires = 0)
        (Printf.sprintf "double_retires=%d" st.double_retires);
      bad (st.double_reclaims = 0)
        (Printf.sprintf "double_reclaims=%d" st.double_reclaims);
      bad
        (st.unreclaimed = st.retired - st.reclaimed)
        (Printf.sprintf "unreclaimed=%d <> retired-reclaimed=%d" st.unreclaimed
           (st.retired - st.reclaimed))
    in
    let rep_ref = ref 0 and setup_total = ref 0 in
    while !rep_ref < reps || (!setup_total < setup_budget_ns && !rep_ref < max_setups) do
      let rep = !rep_ref in
      let measured = rep < reps and last_rep = rep = reps - 1 in
      Array.iter
        (fun wk ->
          Bytes.blit inp.W.prefill 0 wk.model 0 (Bytes.length wk.model);
          wk.cursor <- 0)
        wks;
      Gc.full_major ();
      let bar = barrier () in
      let t0 = Clock.now_ns () in
      let setup_span = Spans.open_ main Spans.setup ~parent:run_span in
      let m =
        Spans.with_span main Spans.setup_create ~parent:setup_span (fun _ ->
            create wl)
      in
      let t_start = ref 0 and before = ref None in
      let start_slice ~last () =
        await bar ~last:(fun () ->
            last ();
            t_start := Clock.now_ns ())
      in
      Spans.with_span main Spans.spawn_join ~parent:setup_span (fun sj ->
          Sched.run Sched.Domains ~nthreads:nworkers (fun w ->
              let wk = wks.(w) and b = wks.(w).spans in
              Spans.with_span b Spans.worker ~parent:sj (fun ws ->
                  let s =
                    Spans.with_span b Spans.register ~parent:ws (fun _ ->
                        Sh.session m)
                  in
                  Spans.with_span b Spans.setup_prefill ~parent:ws (fun _ ->
                      if w = 0 then prefill m s inp.W.prefill_keys);
                  let slice nm win ~traced =
                    Spans.with_span b nm ~parent:ws (fun id ->
                        run_window m s wk win.(w) ~traced ~parent:id
                          ~sub0:(rep * nsub) ~t_start:!t_start
                          ~t_end:(!t_start + slice_ns))
                  in
                  start_slice
                    ~last:(fun () ->
                      setup_ns := (Clock.now_ns () - t0) :: !setup_ns;
                      Spans.close main setup_span)
                    ();
                  if measured then (
                    slice Spans.window e2e ~traced:false;
                    if trace then (
                      start_slice ~last:(fun () -> before := Some (snap m)) ();
                      slice Spans.window_traced tw ~traced:true;
                      await bar ~last:(fun () ->
                          deltas := (Option.get !before, snap m) :: !deltas));
                    if plant = Some "answer" && last_rep && w = 0 then (
                      (* Flip one owned key's model bit: the content check
                         must then report a wrong answer. *)
                      let k = ref 0 in
                      while wk.owner !k <> 0 do
                        incr k
                      done;
                      Bytes.set wk.model !k
                        (if Bytes.get wk.model !k = '\000' then '\001' else '\000'));
                    await bar ~last:ignore;
                    Spans.with_span b Spans.check_content ~parent:ws (fun _ ->
                        check_content m s wk wks));
                  Spans.with_span b Spans.unregister ~parent:ws (fun _ ->
                      Sh.close_session s))));
      audit ~rep ~plant:(plant = Some "census" && last_rep) "after join";
      Sh.destroy m;
      audit ~rep ~plant:false "after destroy";
      setup_total := !setup_total + List.hd !setup_ns;
      incr rep_ref
    done;
    {
      setup_ns = Array.of_list !setup_ns;
      sub_s = float_of_int (slice_ns / nsub) /. 1e9;
      e2e;
      traced = (if trace then Some (tw, List.rev !deltas) else None);
      census = List.rev !census;
    }

  (** Ladder rung: the replay on a freshly prefilled map of the same
      shape, on one domain. *)
  let ladder (wl : W.t) (inp : W.inputs) ops =
    let m = create wl in
    let result = ref (0.0, Bytes.empty) in
    Sched.run Sched.Domains ~nthreads:1 (fun _ ->
        let s = Sh.session m in
        prefill m s inp.W.prefill_keys;
        result := replay ops (exec m s);
        Sh.close_session s);
    Sh.destroy m;
    !result
end

(* The Stdlib baseline rung: the same replay against a [Hashtbl]. *)
let ladder_hashtbl (inp : W.inputs) ops =
  let result = ref (0.0, Bytes.empty) in
  Sched.run Sched.Domains ~nthreads:1 (fun _ ->
      let h = Hashtbl.create (Bytes.length inp.W.prefill) in
      Array.iter (fun k -> Hashtbl.replace h k k) inp.prefill_keys;
      result :=
        replay ops (fun op ->
            let k = W.key op in
            match W.code op with
            | 0 -> Hashtbl.mem h k
            | 1 -> if Hashtbl.mem h k then false else (Hashtbl.replace h k k; true)
            | _ -> if Hashtbl.mem h k then (Hashtbl.remove h k; true) else false));
  !result

let find_scheme name =
  match Schemes.find_impl name with
  | Some m -> m
  | None -> failwith ("scheme not found: " ^ name)

module Main = Make ((val find_scheme "HP-BRCU" : Smr_intf.SCHEME))

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let median_f a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Mean of the middle half.  Sub-window peaks move in steps of a retire
   batch, so their median jumps between steps from run to run; this
   average does not, and still ignores the odd stalled sub-window. *)
let interquartile_mean a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  let lo = n / 4 and hi = n - (n / 4) in
  let sum = ref 0.0 in
  for i = lo to hi - 1 do
    sum := !sum +. a.(i)
  done;
  !sum /. float_of_int (max 1 (hi - lo))

(* Per-sub-window rates summed over the workers, in ops per second. *)
let sub_rates (ws : window array) ~sub_s pick =
  Array.init (reps * nsub) (fun j ->
      float_of_int (Array.fold_left (fun a w -> a + (pick w).(j)) 0 ws) /. sub_s)

let sub_peaks (ws : window array) =
  Array.init (reps * nsub) (fun j ->
      float_of_int (Array.fold_left (fun a w -> max a w.sub_peak.(j)) 0 ws))

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int
let sum_over xs f = Array.fold_left (fun a x -> a + f x) 0 xs

let json_metrics ms =
  String.concat ","
    (List.map
       (fun (name, v, unit_) ->
         let v = if Float.is_finite v then v else 0.0 in
         Printf.sprintf "%S:{\"value\":%.17g,\"unit\":%S}" name v unit_)
       ms)

let print_table title ms =
  Printf.printf "%s\n" title;
  List.iter (fun (n, v, u) -> Printf.printf "  %-34s %16.4f %s\n" n v u) ms

(** The traced run's per-layer metrics (README.md says which end-to-end
    metric each should move). *)
let per_layer (wl : W.t) wks ~main ~(out : Main.outcome) ~tput ~peak_sampled
    ~ladder ~lat_counts =
  match out.traced with
  | None -> []
  | Some (tw, deltas) ->
      let ops = fi (sum_over tw (fun w -> w.ops)) in
      let reads = fi (sum_over tw (fun w -> w.gets)) in
      let kops = ops /. 1e3 in
      let sum f = fi (List.fold_left (fun a (b, e) -> a + f e - f b) 0 deltas) in
      let d f = sum (fun s -> f s.sc) and da f = sum (fun s -> f s.al) in
      let _, last = List.nth deltas (List.length deltas - 1) in
      let busy_ns = fi (sum_over tw (fun w -> w.busy_ns)) in
      let ds_ns =
        fi
          (sum_over wks (fun wk ->
               sum_over [| 0; 1; 2 |] (fun c ->
                   wk.spans.Spans.total.(Spans.ds_of_code c))))
      in
      let traced_tput =
        median_f (sub_rates tw ~sub_s:out.sub_s (fun w -> w.sub_ops)) /. 1e6
      in
      let per_ops = Array.map (fun w -> fi w.ops) tw in
      let bufs = main :: Array.to_list (Array.map (fun wk -> wk.spans) wks) in
      let spans = Spans.spans bufs in
      let durations nm =
        List.filter_map
          (fun (s : Spans.span) ->
            if s.nm = nm then Some (fi (s.t1 - s.t0)) else None)
          spans
        |> Array.of_list |> median_f
      in
      let spawn_join_self =
        Spans.self_times spans
        |> List.filter_map (fun ((s : Spans.span), self) ->
               if s.nm = Spans.spawn_join then Some (fi self) else None)
        |> Array.of_list |> median_f
      in
      let shards = fi wl.shards in
      let gets_n, upd_n = lat_counts in
      [
        ("ds.busy_share", ds_ns /. busy_ns, "ratio");
        ("ds.traverse_steps_per_op", d (fun s -> s.traverse_steps) /. ops, "1/op");
        ("schemes.register_ns", durations Spans.register /. shards, "ns");
        ("schemes.unregister_ns", durations Spans.unregister /. shards, "ns");
        ("schemes.advances_per_kop", d (fun s -> s.advances) /. kops, "1/kop");
        ( "schemes.advance_failures_per_kop",
          d (fun s -> s.advance_failures) /. kops,
          "1/kop" );
        ( "schemes.forced_advances_per_kop",
          d (fun s -> s.forced_advances) /. kops,
          "1/kop" );
        ("schemes.signals_per_kop", d (fun s -> s.signals) /. kops, "1/kop");
        ("schemes.signal_timeouts", d (fun s -> s.signal_timeouts), "count");
        ( "schemes.rollbacks_per_kread",
          ratio (d (fun s -> s.rollbacks)) (reads /. 1e3),
          "1/kread" );
        ( "schemes.read_commit_ratio",
          ratio reads (reads +. d (fun s -> s.rollbacks)),
          "ratio" );
        ( "schemes.resumes_per_traverse",
          ratio (d (fun s -> s.traverse_resumes)) (d (fun s -> s.traverses)),
          "ratio" );
        ( "schemes.validate_failures_per_kop",
          d (fun s -> s.validate_failures) /. kops,
          "1/kop" );
        ("schemes.scans_per_kop", d (fun s -> s.scans) /. kops, "1/kop");
        ( "schemes.scan_yield",
          ratio (d (fun s -> s.scan_reclaimed)) (d (fun s -> s.scans)),
          "blocks/scan" );
        ( "schemes.max_epoch_lag",
          fi (List.fold_left (fun a (_, e) -> max a e.sc.max_epoch_lag) 0 deltas),
          "epochs" );
        ("alloc.allocated_per_op", da (fun a -> a.Alloc.allocated) /. ops, "1/op");
        ("alloc.retired_per_op", da (fun a -> a.Alloc.retired) /. ops, "1/op");
        ("alloc.reclaimed_per_op", da (fun a -> a.Alloc.reclaimed) /. ops, "1/op");
        ( "alloc.reclaim_ratio",
          ratio (da (fun a -> a.Alloc.reclaimed)) (da (fun a -> a.Alloc.retired)),
          "ratio" );
        ("alloc.unreclaimed_final", fi last.al.Alloc.unreclaimed, "blocks");
        ( "alloc.minor_words_per_op",
          Array.fold_left (fun a w -> a +. w.minor_words) 0.0 tw /. ops,
          "words/op" );
        ( "alloc.peak_fold_ratio",
          ratio (fi (Alloc.stats ()).peak_unreclaimed) (fi peak_sampled),
          "x" );
        ("alloc.peak_sampled_max", fi peak_sampled, "blocks");
        ("runtime.gc_minor_per_kop", sum (fun s -> s.gc_minor) /. kops, "1/kop");
        ( "runtime.gc_major_per_s",
          sum (fun s -> s.gc_major) /. (busy_ns /. fi nworkers /. 1e9),
          "1/s" );
        ( "runtime.worker_skew",
          ratio (Array.fold_left max 0.0 per_ops) (Array.fold_left min infinity per_ops),
          "x" );
        ("runtime.spawn_join_ms", spawn_join_self /. 1e6, "ms");
      ]
      @ ladder
      @ [
          ("harness.self_ns_per_op", (busy_ns -. ds_ns) /. ops, "ns");
          ("trace.overhead_pct", 100.0 *. ratio (tput -. traced_tput) tput, "%");
          ( "trace.dropped_spans",
            fi (List.fold_left (fun a b -> a + b.Spans.dropped) 0 bufs),
            "count" );
          ("lat.get_samples", fi gets_n, "count");
          ("lat.update_samples", fi upd_n, "count");
        ]

(* The ladder (traced run only): single-domain replays of the stream's
   first ops on NR, RCU and HP-BRCU maps of the same shape, against a
   Stdlib [Hashtbl].  Every rung's answers must equal the Hashtbl's. *)
let run_ladder (wl : W.t) inp ~main ~run_span =
  let ops = W.ladder_stream wl inp in
  let rung nm f =
    Spans.with_span main (Spans.id_of nm) ~parent:run_span (fun _ -> f ())
  in
  let ht_ns, ht_ans = rung "ladder.hashtbl" (fun () -> ladder_hashtbl inp ops) in
  let failed = ref 0 and attempted = ref 0 in
  let scheme nm scheme =
    let module L = Make ((val find_scheme scheme : Smr_intf.SCHEME)) in
    let ns, ans = rung nm (fun () -> L.ladder wl inp ops) in
    attempted := !attempted + Bytes.length ans;
    Bytes.iteri (fun j c -> if c <> Bytes.get ht_ans j then incr failed) ans;
    ns
  in
  let nr = scheme "ladder.nr" "NR" in
  let rcu = scheme "ladder.rcu" "RCU" in
  let hpbrcu = scheme "ladder.hpbrcu" "HP-BRCU" in
  ( [
      ("ladder.hashtbl_ns", ht_ns, "ns");
      ("ladder.nr_ns", nr, "ns");
      ("ladder.rcu_ns", rcu, "ns");
      ("ladder.hpbrcu_ns", hpbrcu, "ns");
      ("ladder.scheme_share", (hpbrcu -. nr) /. hpbrcu, "ratio");
    ],
    !failed,
    !attempted )

let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let plant = ref None in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" W.names);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " measured time");
      ("--trace", Arg.Set_int trace, " 1 = traced per-layer run");
      ( "--plant",
        Arg.String (fun s -> plant := Some s),
        " answer|census: feed the checker a planted violation (must fail)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let wl =
    match W.find ~seed:!seed !workload with
    | Some wl -> wl
    | None ->
        prerr_endline ("unknown workload: " ^ !workload ^ "\n" ^ usage);
        exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then (
    prerr_endline usage;
    exit 2);
  (match !plant with
  | None | Some ("answer" | "census") -> ()
  | Some p ->
      prerr_endline ("unknown --plant " ^ p);
      exit 2);
  let trace = !trace = 1 in
  let host = Calib.run () in
  print_table "host calibration" (Calib.metrics host);
  let inp = W.inputs wl ~seed:!seed in
  let main = Spans.create 0 in
  let run_span = Spans.open_ main Spans.run ~parent:Spans.none in
  let wks =
    Array.init nworkers (fun w ->
        {
          w;
          stream = inp.W.streams.(w);
          model = Bytes.copy inp.prefill;
          owner = wl.owner;
          tmask = wl.time_mask.(w);
          cursor = 0;
          lat =
            [| Lat.create ~mask:wl.lat_mask.(w); Lat.create ~mask:wl.lat_mask.(w) |];
          failed = 0;
          errors = [];
          peak = 0;
          spans = Spans.create (w + 1);
          attempted = 0;
        })
  in
  let out =
    Main.run wl inp wks ~main ~run_span ~seconds:!seconds ~trace ~plant:!plant
  in
  let peak_sampled = Array.fold_left (fun a wk -> max a wk.peak) 0 wks in
  let ladder, ladder_failed, ladder_attempted =
    if trace then run_ladder wl inp ~main ~run_span else ([], 0, 0)
  in
  Spans.close main run_span;
  let failed = sum_over wks (fun wk -> wk.failed) + List.length out.census + ladder_failed in
  let attempted = sum_over wks (fun wk -> wk.attempted) + ladder_attempted in
  Array.iter (fun wk -> List.iter prerr_endline (List.rev wk.errors)) wks;
  List.iter (fun m -> prerr_endline ("census: " ^ m)) out.census;
  if ladder_failed > 0 then
    Printf.eprintf "ladder: %d answers differ from the Hashtbl replay\n" ladder_failed;
  let get_lat = Lat.summarize (Array.to_list (Array.map (fun wk -> wk.lat.(0)) wks)) in
  let upd_lat = Lat.summarize (Array.to_list (Array.map (fun wk -> wk.lat.(1)) wks)) in
  let lat_missing = get_lat = None || upd_lat = None in
  if lat_missing then
    prerr_endline "too few latency samples for a p99 (need 10 beyond it)";
  let correct = failed = 0 && not lat_missing in
  let rate pick = median_f (sub_rates out.e2e ~sub_s:out.sub_s pick) /. 1e6 in
  let tput = rate (fun w -> w.sub_ops) in
  let lat_v f = function Some s -> f s | None -> 0.0 in
  let e2e_metrics =
    [
      ("throughput_mops", tput, "Mop/s");
      ("read_mops", rate (fun w -> w.sub_gets), "Mop/s");
      ("get_p50_ns", lat_v (fun s -> s.Lat.p50) get_lat, "ns");
      ("get_p99_ns", lat_v (fun s -> s.Lat.p99) get_lat, "ns");
      ("update_p50_ns", lat_v (fun s -> s.Lat.p50) upd_lat, "ns");
      ("update_p99_ns", lat_v (fun s -> s.Lat.p99) upd_lat, "ns");
      ("peak_unreclaimed", interquartile_mean (sub_peaks out.e2e), "blocks");
      ("setup_s", median_f (Array.map (fun ns -> fi ns /. 1e9) out.setup_ns), "s");
    ]
  in
  print_table
    (Printf.sprintf "%s seed=%d: HP-BRCU, %d workers, closed loop, %d maps x %d sub-windows of %.3f s"
       wl.name !seed nworkers reps nsub out.sub_s)
    e2e_metrics;
  let counts = function Some s -> (s.Lat.samples, s.Lat.beyond_p99) | None -> (0, 0) in
  let gs, gb = counts get_lat and us, ub = counts upd_lat in
  Printf.printf
    "  latency samples: get n=%d (%d beyond p99), update n=%d (%d beyond p99)\n" gs gb
    us ub;
  Printf.printf "  failed_op_ratio = %d / %d = %g\n" failed attempted
    (fi failed /. fi (max 1 attempted));
  let metrics =
    if not trace then e2e_metrics
    else
      let pl =
        per_layer wl wks ~main ~out ~tput ~peak_sampled ~ladder ~lat_counts:(gs, us)
        @ Calib.metrics host
      in
      print_table "per-layer (traced run)" pl;
      let dir = ".perfbench-out" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Printf.sprintf "%s/%s-seed%d.trace.json" dir wl.name !seed in
      Spans.write_chrome path
        (Spans.spans (main :: Array.to_list (Array.map (fun wk -> wk.spans) wks)));
      Printf.printf "  spans written to %s\n" path;
      pl
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n"
    correct attempted failed (json_metrics metrics);
  exit (if correct then 0 else 1)
