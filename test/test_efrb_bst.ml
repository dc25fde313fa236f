(* EFRB external BST (Ellen et al.): Table 1's only ✓-for-HP tree.  Runs
   under every implemented scheme. *)

let () =
  Alcotest.run "efrb_bst"
    [
      ( "all",
        Test_util.standard_cases (module Hpbrcu_ds.Efrb_bst.Make)
          Test_util.all_schemes );
    ]
