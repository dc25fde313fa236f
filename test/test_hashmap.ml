(* HashMap: HMList buckets under HP, and under HE and IBR, which cannot
   run HHSList; HHSList buckets everywhere else (the paper's benchmark
   suite).  The split is [Matrix.bucket_list]'s, the one every harness
   uses. *)

module Caps = Hpbrcu_core.Caps
module Matrix = Hpbrcu_workload.Matrix

let with_buckets ds =
  List.filter (fun (_, s) -> Matrix.bucket_list s = ds) Test_util.all_schemes

(* Whatever list the helper picks for a scheme, the scheme's caps must
   allow it. *)
let bucket_choice =
  List.map
    (fun (n, s) ->
      Alcotest.test_case n `Quick (fun () ->
          let ds = Matrix.bucket_list s in
          Alcotest.(check bool)
            (n ^ " supports its bucket list")
            true
            ((Matrix.caps s).Caps.supports ds <> Caps.No)))
    Matrix.schemes

let () =
  Alcotest.run "hashmap"
    [
      ( "hhs-buckets",
        Test_util.standard_cases (module Hpbrcu_ds.Hashmap.Make)
          (with_buckets Caps.HHSList) );
      ( "hm-buckets",
        Test_util.standard_cases (module Hpbrcu_ds.Hashmap.Make_hm)
          (with_buckets Caps.HMList) );
      ("bucket-choice", bucket_choice);
    ]
