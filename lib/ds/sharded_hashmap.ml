(** Sharded hash map: N independent hash maps, each owning its {e own}
    reclamation domain — the payoff scenario of the first-class-domain
    redesign (cf. P0484's per-[rcu_domain] partitioning and Hyaline's
    per-structure contexts).

    Keys route to shards by a Fibonacci multiplicative hash; each shard is
    a {!Hashmap.Make_gen} map created over a private {!SCHEME} domain, so
    a stalled or crashed reader pinned inside shard [i]'s epoch strands
    only shard [i]'s retirements — every other shard's unreclaimed
    watermark stays flat.  [smrbench shards] measures exactly that against
    the {!create_shared} baseline, where the same structure puts all
    shards on one domain and a single crashed reader balloons the whole
    map's footprint.

    A session registers the calling thread with {e every} shard's domain
    (one inner session per shard, built once, cold path); per-operation
    routing then indexes the shard and its premade session, so the hot
    path adds one multiply-shift over a flat hash map. *)

module Smr_intf = Hpbrcu_core.Smr_intf
module Dom = Smr_intf.Dom

module Make_gen (B : Ds_intf.MAKE) (X : Smr_intf.SCHEME) = struct
  module M = Hashmap.Make_gen (B) (X)

  type shard = { sdom : X.domain; map : M.t }
  type t = { shards : shard array; mask : int }
  type session = M.session array

  let pow2_ge n =
    let size = ref 1 in
    while !size < n do
      size := !size * 2
    done;
    !size

  (* [shards] maps (count rounded up to a power of two), shard [i] over
     the domain [dom_of i]. *)
  let build ~shards ~buckets_per_shard dom_of =
    let n = pow2_ge (max 1 shards) in
    {
      shards =
        Array.init n (fun i ->
            let d = dom_of i in
            { sdom = d; map = M.create_sized d buckets_per_shard });
      mask = n - 1;
    }

  (** [create config] — [shards] independent domains (count rounded up to
      a power of two), labelled ["<label>0" … "<label>N-1"]. *)
  let create ?(label = "shard") ?(shards = 8) ?(buckets_per_shard = 64)
      config =
    build ~shards ~buckets_per_shard (fun i ->
        X.create ~label:(Printf.sprintf "%s%d" label i) config)

  (** [create_shared config] — the control build: the same sharded
      structure, but every shard on {e one} domain.  Routing and bucket
      layout are identical to {!create}; only the reclamation topology
      differs, so any footprint difference between the two under the same
      fault is attributable to domain isolation alone. *)
  let create_shared ?(label = "shared") ?(shards = 8)
      ?(buckets_per_shard = 64) config =
    let d = X.create ~label config in
    build ~shards ~buckets_per_shard (fun _ -> d)

  let shard_count t = t.mask + 1

  (* Shard routing uses the hash's top bits; the inner maps' bucket choice
     uses bits 17+, so the two splits stay independent. *)
  let shard_index t key =
    let h = key * 0x2545F4914F6CDD1D in
    (h lsr 48) land t.mask

  (** The domain cores, indexed like the shards — for per-shard watermark
      accounting ({!Dom.unreclaimed} / {!Dom.peak_unreclaimed}).  Under
      {!create_shared} every slot is the same domain. *)
  let metas t = Array.map (fun s -> X.dom s.sdom) t.shards

  let session t = Array.map (fun s -> M.session s.map) t.shards
  let close_session ss = Array.iter M.close_session ss

  let get t ss key =
    let i = shard_index t key in
    M.get t.shards.(i).map ss.(i) key

  let insert t ss key value =
    let i = shard_index t key in
    M.insert t.shards.(i).map ss.(i) key value

  let remove t ss key =
    let i = shard_index t key in
    M.remove t.shards.(i).map ss.(i) key

  let cleanup t ss = Array.iteri (fun i s -> M.cleanup s.map ss.(i)) t.shards

  (** Destroy every shard's domain.  Double-destroy raises the typed
      {!Dom.Destroyed}, so already-dead domains are skipped here — the
      shared build hits its one domain once per shard, and harnesses may
      call destroy again at teardown.  Raises {!Dom.Domain_active} on
      live handles unless [force] — crash harnesses tear down under dead
      readers' registrations. *)
  let destroy ?force t =
    Array.iter
      (fun s ->
        if not (Dom.destroyed (X.dom s.sdom)) then X.destroy ?force s.sdom)
      t.shards
end

(** Sharded map over HHSList-bucketed shards (all schemes but HP). *)
module Make (X : Smr_intf.SCHEME) = Make_gen (Harris_list.Make_hhs) (X)
