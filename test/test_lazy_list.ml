(* Lazy list (Heller et al.): the lock-based structure of Table 1 row 1.
   Runs under the coarse-grained and restart-capable schemes; HP/HE/IBR
   are excluded exactly as the paper excludes them (optimistic lookup). *)

let schemes =
  List.filter (fun (n, _) -> n <> "NBR-Large") Test_util.optimistic_schemes

let () =
  Alcotest.run "lazy_list"
    [
      ( "all",
        Test_util.standard_cases (module Hpbrcu_ds.Lazy_list.Make) schemes );
    ]
