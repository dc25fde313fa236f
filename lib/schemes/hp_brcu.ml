(** HP-BRCU — the paper's full solution (§4): HP-RCU with RCU replaced by
    bounded RCU.

    Traversals run inside BRCU critical sections that other threads can
    abort (selective neutralization of lagging readers, Algorithm 5), so a
    stalled reader can no longer block reclamation; periodic HP checkpoints
    with {e double buffering} (Algorithm 7) guarantee that a rollback
    arriving mid-checkpoint always leaves one complete protector to resume
    from.  Abort-rollback-unsafe writes during traversal — helping
    physical deletion plus retirement, as in the Harris-Michael list
    (Algorithm 8) — run inside abort-masked regions (Algorithm 6) on
    HP-protected pointers.

    Retirement is the two-step [BRCU.defer (fun () -> HP.retire p)] —
    intrusively, the deferred {!Hpbrcu_core.Retired.entry} flows from the
    BRCU side's task list into the HP side's orphan list — giving the
    bound of §5: at most [2GN + GN² + H] unreclaimed blocks with
    [G = max_local_tasks × force_threshold], [N] threads and [H] shields.

    Both halves share one {!Smr_intf.Dom.t}; shields close over the BRCU
    domain so the simulator's checkpoint delivery point can poll the
    owning domain's pending signals.  The paper's ablation mutants
    (no-masking, no-double-buffering) are no longer separate functors:
    they are just domains created from configs with [abort_masking] or
    [double_buffering] off. *)

module Alloc = Hpbrcu_alloc.Alloc
module Block = Hpbrcu_alloc.Block
module Sched = Hpbrcu_runtime.Sched
module Stats = Hpbrcu_runtime.Stats
module Trace = Hpbrcu_runtime.Trace
open Hpbrcu_core
module Dom = Smr_intf.Dom
module B = Brcu_core
module H = Hp_core

module Impl : sig
  include Smr_intf.SCHEME

  val brcu : handle -> B.handle
  (** The BRCU half of a handle: its section status, announced epoch and
      signal box, for tests that aim a rollback at a traversal. *)
end = struct
  let scheme = "HP-BRCU"

  let caps (cfg : Config.t) : Caps.t =
    {
      name = "HP-BRCU";
      robust_stalled = true;
      robust_longrun = true;
      per_node = NoOverhead;
      starvation = Fine;
      supports = Caps.supports_optimistic;
      (* Paper §5: with G = max_local_tasks × force_threshold a thread
         schedules at most G deferred tasks per epoch, giving at most
         2GN + GN² unreclaimed in the BRCU stage plus H for the HP stage's
         per-thread batches and shields. *)
      bound =
        (fun ~nthreads ->
          let g = cfg.Config.max_local_tasks * cfg.Config.force_threshold in
          let n = nthreads in
          Some ((2 * g * n) + (g * n * n) + (n * (cfg.Config.batch + 64))));
    }

  type domain = {
    meta : Dom.t;
    bd : B.domain;
    hd : H.domain;
    (* Traversal diagnostics (reported via [stats]). *)
    tr_steps : Stats.Counter.t;
    tr_validate_fail : Stats.Counter.t;
    tr_traverses : Stats.Counter.t;
    tr_resumes : Stats.Counter.t;
    double_buffering : bool;
    backup_period : int;
  }

  let create ?label config =
    let meta = Dom.make ~scheme ?label config in
    let hd = H.create meta in
    {
      meta;
      hd;
      (* Two-step retirement's second step: expired deferrals land in the
         HP half, still subject to the shield scan. *)
      bd = B.create ~expire:(H.retire_deferred_chain hd) meta;
      tr_steps = Stats.Counter.make ();
      tr_validate_fail = Stats.Counter.make ();
      tr_traverses = Stats.Counter.make ();
      tr_resumes = Stats.Counter.make ();
      double_buffering = config.Config.double_buffering;
      backup_period = config.Config.backup_period;
    }

  let dom d = d.meta

  let destroy ?force d =
    Dom.begin_destroy ?force d.meta;
    begin
      B.drain d.bd;
      H.drain d.hd;
      Dom.finish_destroy d.meta
    end

  type handle = {
    d : domain;
    bh : B.handle;
    hh : H.handle;
    mutable steps : int;
    mutable resumes : int;
        (* the running traverse's counts, folded into the domain's
           sharded counters once when it ends *)
  }

  let register d =
    Dom.on_register d.meta;
    { d; bh = B.register d.bd; hh = H.register d.hd; steps = 0; resumes = 0 }

  let unregister h =
    B.unregister h.bh;
    H.unregister h.hh;
    Dom.on_unregister h.d.meta

  let brcu h = h.bh

  let flush h =
    B.flush h.bh;
    H.flush h.hh

  (* The nudge rung: force stranded TASKS through even though the
     supervisor's transient handle has an empty batch of its own. *)
  let expedite h =
    B.expedite h.bh;
    H.flush h.hh

  (* The HP slot plus the BRCU domain: the checkpoint delivery point must
     poll the owning domain's pending signals, not some global. *)
  type shield = { hs : H.shield; sbd : B.domain }

  let new_shield h = { hs = H.new_shield h.hh; sbd = h.d.bd }

  (* A shield store is a preemption and delivery point: the paper's
     signals are truly asynchronous and can abort a checkpoint between its
     two protect stores (possibly after a stall) — the torn-checkpoint
     case double buffering exists for. *)
  let protect s b =
    H.protect s.hs b;
    (* The extra preemption/delivery point only exists in the simulator,
       where interleaving fidelity is the product; in domain mode a shield
       store is just a store. *)
    if Sched.fiber_mode () then begin
      Sched.yield ();
      B.poll_self s.sbd
    end

  let clear s = H.clear s.hs

  exception Restart

  let op _ body =
    let rec go () = try body () with Restart -> go () in
    go ()

  let crit h body = B.crit h.bh body
  let mask h body = B.mask h.bh body

  (* Coarse protection inside critical sections; the poll is the
     neutralization delivery point (a pending signal rolls the critical
     section back before this read can observe freed memory). *)
  let read h _s ~src ~hdr:_ cell =
    Sched.yield ();
    B.poll h.bh;
    if src != Block.none then Alloc.check_access src;
    Link.get cell

  (* On domains [read] is the step's one delivery point: [deref] polls only
     in the simulator, as [protect] does.  That is safe because a
     reclaimer on domains advances only after every reader has acked the
     signal or is out of its section ([No_ack] vetoes the advance), so a
     signal that lands after [read]'s poll is acked at the next one: the
     rollback comes one node later and the reader never touches memory
     freed under it. *)
  let deref h blk =
    if Sched.fiber_mode () then B.poll h.bh;
    Alloc.check_access blk

  (* Two-step retirement (Algorithm 4) through BRCU's Defer, intrusive. *)
  let retire h ?free ?patch:_ ?(claimed = false) blk =
    if not claimed then Alloc.retire blk;
    Dom.tag_retire h.d.meta blk;
    B.defer h.bh ?free blk;
    H.maybe_scan h.hh

  let recycles = false
  let current_era _ = 0

  (* Traverse with double buffering (Algorithm 7).  Unlike HP-RCU there is
     no voluntary exit between checkpoints: the critical section runs until
     Finish, relying on neutralization to bound it.

     The loop below is [crit] unrolled by hand, so a traversal allocates no
     closure and no option: [walk], [start] and [resume] are toplevel and
     take the whole traversal state as arguments.  [comp] names the buffer
     holding the last complete checkpoint (0 = [backup], 1 = [prot]) and
     [c0]/[c1] the cursors those buffers protect, and [left] counts the
     steps to the next periodic checkpoint (a countdown, not [i mod
     backup_period]: no division per step); a rollback landing
     anywhere — in [init], in a step, or between a checkpoint's two protect
     stores — resumes from [comp], which only moves once a checkpoint's
     stores have all completed.  Every call that can deliver a [Rollback]
     sits in its own [match ... with exception] so that the recursion stays
     in tail position. *)

  (* A foreign exception leaves the section (crit's third exit). *)
  let bail h e =
    B.abort h.bh;
    raise e

  (* Protect [c] into buffer [nb]; [false] if a rollback landed before the
     stores completed.  Begin/end bracket the double-buffered protect
     stores — the window a neutralization signal can land inside (§4.3). *)
  let checkpoint h ~protect buf nb c =
    Trace.emit Trace.Checkpoint_begin nb;
    match protect buf c with
    | () ->
        Trace.emit Trace.Checkpoint nb;
        true
    | exception B.Rollback -> false
    | exception e -> bail h e

  let rec walk h ~prot ~backup ~protect ~validate ~step ~comp ~c0 ~c1 cur left
      =
    h.steps <- h.steps + 1;
    match step cur with
    | Smr_intf.Continue c when left > 1 ->
        walk h ~prot ~backup ~protect ~validate ~step ~comp ~c0 ~c1 c (left - 1)
    | Smr_intf.Continue c ->
        let nb = 1 - comp in
        if checkpoint h ~protect (if nb = 0 then backup else prot) nb c then
          let c0 = if nb = 0 then c else c0 and c1 = if nb = 1 then c else c1 in
          walk h ~prot ~backup ~protect ~validate ~step ~comp:nb ~c0 ~c1 c
            h.d.backup_period
        else resume h ~prot ~backup ~protect ~validate ~step ~comp ~c0 ~c1
    | Smr_intf.Finish (c, r) ->
        let nb = 1 - comp in
        let buf = if nb = 0 then backup else prot in
        if checkpoint h ~protect buf nb c then begin
          B.leave h.bh;
          Some (c, buf, r)
        end
        else resume h ~prot ~backup ~protect ~validate ~step ~comp ~c0 ~c1
    | Smr_intf.Fail ->
        B.leave h.bh;
        None
    | exception B.Rollback ->
        resume h ~prot ~backup ~protect ~validate ~step ~comp ~c0 ~c1
    | exception e -> bail h e

  (* Rollback: re-enter, then revalidate the last complete checkpoint
     (R1 / §3.3) before walking on from it. *)
  and resume h ~prot ~backup ~protect ~validate ~step ~comp ~c0 ~c1 =
    B.rolled_back h.bh;
    B.enter h.bh;
    h.resumes <- h.resumes + 1;
    let c = if comp = 0 then c0 else c1 in
    match validate c with
    | true ->
        walk h ~prot ~backup ~protect ~validate ~step ~comp ~c0 ~c1 c
          h.d.backup_period
    | false ->
        Stats.Counter.incr h.d.tr_validate_fail;
        B.leave h.bh;
        None
    | exception B.Rollback ->
        resume h ~prot ~backup ~protect ~validate ~step ~comp ~c0 ~c1
    | exception e -> bail h e

  (* The entry point, inside a freshly entered section.  It needs no
     revalidation — the cursor comes fresh from the entry point inside
     this very critical section (R1 holds trivially), and crucially this
     lets the traversal *step through* (and help unlink) a marked first
     node instead of failing before it can help, which would livelock
     every thread behind a marked entry node whose remover lost its unlink
     CAS.  A rollback before the backup buffer fully protects the cursor
     starts over. *)
  let rec start h ~prot ~backup ~protect ~validate ~init ~step =
    h.resumes <- h.resumes + 1;
    match
      let s = init () in
      protect backup s;
      s
    with
    | s ->
        walk h ~prot ~backup ~protect ~validate ~step ~comp:0 ~c0:s ~c1:s s
          h.d.backup_period
    | exception B.Rollback ->
        B.rolled_back h.bh;
        B.enter h.bh;
        start h ~prot ~backup ~protect ~validate ~init ~step
    | exception e -> bail h e

  let fold_counts h =
    Stats.Counter.add h.d.tr_steps h.steps;
    Stats.Counter.add h.d.tr_resumes h.resumes;
    h.steps <- 0;
    h.resumes <- 0

  let traverse h ~prot ~backup ~protect ~validate ~init ~step =
    (* Ablation hook: without double buffering both checkpoint slots are
       the same protector, so a rollback landing mid-checkpoint can leave
       no complete protection (§4.3). *)
    let backup = if h.d.double_buffering then backup else prot in
    Stats.Counter.incr h.d.tr_traverses;
    assert (not (B.in_cs h.bh));
    B.enter h.bh;
    match start h ~prot ~backup ~protect ~validate ~init ~step with
    | r ->
        fold_counts h;
        r
    | exception e ->
        fold_counts h;
        raise e

  let stats d =
    Dom.stamp_stats d.meta
      {
        (Stats.add (B.stats d.bd) (H.stats d.hd)) with
        traverses = Stats.Counter.value d.tr_traverses;
        traverse_steps = Stats.Counter.value d.tr_steps;
        traverse_resumes = Stats.Counter.value d.tr_resumes;
        validate_failures = Stats.Counter.value d.tr_validate_fail;
      }
end
