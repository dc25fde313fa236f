(* Natarajan-Mittal external BST: optimistic schemes only (HP excluded,
   Table 1). *)

let () =
  Alcotest.run "nmtree"
    [
      ( "all",
        Test_util.standard_cases (module Hpbrcu_ds.Nmtree.Make)
          Test_util.optimistic_schemes );
    ]
