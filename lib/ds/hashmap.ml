(** Chaining hash table (§6): an array of lock-free list buckets.

    The paper's HashMap uses HMList buckets under HP (which cannot run the
    optimistic Harris traversal) and HHSList buckets under every other
    scheme; {!Make_hm} and {!Make} mirror that split, and the workload
    harness picks per scheme ([Matrix.bucket_list]).

    Buckets are chosen by a Fibonacci multiplicative hash; the bucket count
    is fixed at creation ([create_sized]) so that the expected chain
    length matches the paper's (~1.7 for the 100K-key configuration). *)

module Smr_intf = Hpbrcu_core.Smr_intf

module Make_gen (B : Ds_intf.MAKE) (X : Smr_intf.SCHEME) = struct
  module L = B (X)

  type domain = X.domain
  type t = { buckets : L.t array; mask : int }
  type session = L.session

  let default_buckets = 1024

  (* Power-of-two bucket count ≥ requested. *)
  let create_sized dom n =
    let n = max 4 n in
    let size = ref 4 in
    while !size < n do
      size := !size * 2
    done;
    { buckets = Array.init !size (fun _ -> L.create dom); mask = !size - 1 }

  let create dom = create_sized dom default_buckets

  (* Fibonacci hashing spreads consecutive keys across buckets. *)
  let bucket t key =
    let h = key * 0x2545F4914F6CDD1D in
    t.buckets.((h lsr 17) land t.mask)

  (* All buckets share one scheme handle/shield set: a thread runs one
     bucket operation at a time. *)
  let session t = L.session t.buckets.(0)
  let close_session = L.close_session

  let get t s key = L.get (bucket t key) s key
  let insert t s key value = L.insert (bucket t key) s key value
  let remove t s key = L.remove (bucket t key) s key
  let cleanup t s = Array.iter (fun b -> L.cleanup b s) t.buckets
end

(** HashMap over HHSList buckets (all schemes except HP). *)
module Make (X : Smr_intf.SCHEME) : Ds_intf.MAP with type domain = X.domain =
  Make_gen (Harris_list.Make_hhs) (X)

(** HashMap over HMList buckets (for HP, as in the paper). *)
module Make_hm (X : Smr_intf.SCHEME) : Ds_intf.MAP with type domain = X.domain =
  Make_gen (Hm_list.Make) (X)
