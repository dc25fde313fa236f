(* SkipList: all schemes (HP runs the helping search and loses
   wait-freedom, per Table 1's ▲). *)

let () =
  Alcotest.run "skiplist"
    [
      ( "all",
        Test_util.standard_cases (module Hpbrcu_ds.Skiplist.Make)
          Test_util.all_schemes );
    ]
