(** Shared counters with peak tracking, sharded into per-domain lanes.

    These counters sit on the hottest shared path in the system: every
    [Alloc.retire]/[Alloc.reclaim] bumps the global unreclaimed counter
    and its per-domain watermark twin.  The original layout was a single
    [value] atomic plus a single [peak] atomic updated by an unconditional
    CAS loop on every increment — under the Domains backend that is two
    contended cache lines ping-ponging between every core on every
    retirement.

    The current layout shards the counter into {e lanes}: one
    [{value; peak}] cell pair per hardware domain (lane = OCaml domain id
    masked into a power-of-two table), with a {!Layout.spacer} between
    consecutive lanes so neighbouring lanes never share a cache line.  An
    earlier comment here claimed "we cannot pad counters" because OCaml
    gives no placement control — that was too pessimistic: the minor heap
    is a bump allocator, so allocating [lane.value], [lane.peak] and a
    live 128-byte filler back-to-back keeps each lane's cells a cache
    line away from the next lane's (see {!Layout}).

    Semantics per operation:
    - [incr]/[decr]/[add] touch only the caller's own lane — an
      uncontended RMW unless two domains collide in the mask.
    - [get] folds the lane values; the fold equals the exact global sum
      at every moment (lanes may individually go negative when a block
      retired on one domain is reclaimed on another; the sum telescopes).
    - [peak] folds the lane peaks.  On a single domain — the fiber
      simulator, and this 1-core container where the lane table has one
      entry — that is exactly the old single-cell semantics, bit for bit,
      which the unit tests and every fiber-mode gate rely on.  Across
      [k > 1] domains it is an {e upper bound} on the true peak
      (max of a sum ≤ sum of per-lane maxes): the watermark can be
      over-reported under real parallelism, never under-reported.

    The lane count is sized once at start-up from
    [Domain.recommended_domain_count] (rounded up to a power of two,
    capped at 64): fiber-only processes pay a single lane and zero fold
    overhead; a 64-core box gets 64-way spreading. *)

let lanes =
  let rec pow2 n k = if k >= n then k else pow2 n (k * 2) in
  pow2 (max 1 (min 64 (Domain.recommended_domain_count ()))) 1

let mask = lanes - 1

(* The lane index of the calling domain.  [Domain.self] is a cheap read
   of domain-local state; ids grow monotonically across a process's
   spawns, so masking can collide two live domains into one lane — that
   only costs contention, never correctness.  The initial domain (id 0,
   which runs the whole fiber simulator) always lands in lane 0. *)
let[@inline] lane_ix () = (Domain.self () :> int) land mask

type lane = {
  value : int Atomic.t;
  peak : int Atomic.t;
  _pad : int array;  (* keeps a live cache line between lanes; see Layout *)
}

type t = lane array

let make () : t =
  Array.init lanes (fun _ ->
      { value = Atomic.make 0; peak = Atomic.make 0; _pad = Layout.spacer () })

let get (t : t) =
  let s = ref 0 in
  for i = 0 to lanes - 1 do
    s := !s + Atomic.get t.(i).value
  done;
  !s

let peak (t : t) =
  let s = ref 0 in
  for i = 0 to lanes - 1 do
    s := !s + Atomic.get t.(i).peak
  done;
  !s

(* The peak CAS now races only against same-lane writers (mask
   collisions); with one domain per lane it never retries. *)
let rec bump_peak (l : lane) v =
  let p = Atomic.get l.peak in
  if v > p && not (Atomic.compare_and_set l.peak p v) then bump_peak l v

(** [incr t] increments the caller's lane and updates its recorded peak. *)
let incr (t : t) =
  let l = t.(lane_ix ()) in
  let v = Atomic.fetch_and_add l.value 1 + 1 in
  bump_peak l v

let decr (t : t) = ignore (Atomic.fetch_and_add t.(lane_ix ()).value (-1))

(** [bump t] increments the caller's lane {e without} peak tracking: the
    values-only use, for a counter whose peak nobody reads (the
    allocator's event totals).  [peak] of such a counter stays 0. *)
let[@inline] bump (t : t) = Atomic.incr t.(lane_ix ()).value

let add (t : t) n =
  let l = t.(lane_ix ()) in
  let v = Atomic.fetch_and_add l.value n + n in
  if n > 0 then bump_peak l v

(** [reset t] zeroes every lane's value and peak (between experiment
    cells). *)
let reset (t : t) =
  Array.iter
    (fun l ->
      Atomic.set l.value 0;
      Atomic.set l.peak 0)
    t

(** [reset_peak t] re-arms peak tracking at the current value, for
    measuring the peak of a window rather than of the whole run: each
    lane's peak restarts at that lane's value, so the folded peak
    restarts at the folded value. *)
let reset_peak (t : t) =
  Array.iter (fun l -> Atomic.set l.peak (Atomic.get l.value)) t
