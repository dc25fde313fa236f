(* The kernel table behind [smrbench bench-reclaim]: every gated row stays
   allocation-free at small iteration counts, each budget kind the table
   carries is enforced by [gate], and the parent's rows keep their keys
   and gating.  Checks read minor words, never ns, so they hold on any
   host. *)

module KB = Hpbrcu_workload.Kernel_bench

let spec kernel scheme hazards =
  match
    List.find_opt
      (fun k ->
        let r = k.KB.spec in
        r.KB.kernel = kernel && r.KB.scheme = scheme && r.KB.hazards = hazards)
      KB.table
  with
  | Some k -> k.KB.spec
  | None -> Alcotest.failf "no %s/%s H=%d row in the kernel table" kernel scheme hazards

let test_gated_rows_allocation_free () =
  List.iter
    (fun k ->
      if k.KB.spec.KB.gated then begin
        let r = KB.run_kernel ~quick:true k in
        if r.KB.minor_words_per_op > KB.words_budget then
          Alcotest.failf "%s/%s H=%d allocates %.4f minor words/op" r.KB.kernel
            r.KB.scheme r.KB.hazards r.KB.minor_words_per_op
      end)
    KB.table

let flagged r = KB.gate [ r ] <> []

let test_gate_budgets () =
  let check name want r = Alcotest.(check bool) name want (flagged r) in
  let hp = spec "retire" "HP" 0 in
  check "gated row over the words budget" true
    { hp with minor_words_per_op = 0.06 };
  check "gated row at the words budget" false
    { hp with minor_words_per_op = 0.05 };
  let off = spec "trace-emit-off" "-" 0 in
  check "disabled emit at 10 ns" true { off with ns_per_op = 10. };
  check "disabled emit under 10 ns" false { off with ns_per_op = 9.9 };
  let flight = spec "flight-emit" "-" 0 in
  check "armed flight emit over 25 ns" true { flight with ns_per_op = 25.1 };
  check "armed flight emit at 25 ns" false { flight with ns_per_op = 25. };
  let brcu = spec "retire" "HP-BRCU" 0 in
  Alcotest.(check bool) "two-step retire is ungated" false brcu.KB.gated;
  check "ungated row that allocates" false
    { brcu with minor_words_per_op = 16.; ns_per_op = 1e6 };
  Alcotest.(check int) "one message per broken budget" 4
    (List.length
       (KB.gate
          [
            { hp with minor_words_per_op = 1. };
            { off with ns_per_op = 11. };
            { flight with ns_per_op = 30.; minor_words_per_op = 1. };
          ]))

(* The rows bench-reclaim reported before the table grew structure,
   crit and protect rows: same keys, same gating. *)
let test_rows_kept () =
  List.iter
    (fun (kernel, scheme, hazards, gated) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s H=%d gated" kernel scheme hazards)
        gated (spec kernel scheme hazards).KB.gated)
    [
      ("retire", "HP", 0, true);
      ("retire", "HP++", 0, true);
      ("retire", "HE", 0, true);
      ("retire", "IBR", 0, true);
      ("retire", "RCU", 0, false);
      ("retire", "PEBR", 0, false);
      ("retire", "NBR", 0, false);
      ("retire", "HP-RCU", 0, false);
      ("retire", "HP-BRCU", 0, false);
      ("scan", "HP", 64, true);
      ("scan", "HP", 1024, true);
      ("scan", "HP", 16384, true);
      ("pin_unpin", "EBR", 0, true);
      ("advance_fail", "EBR", 0, true);
      ("guards", "EBR", 0, true);
      ("advance_fail", "BRCU", 0, true);
      ("crit_poll", "BRCU", 0, true);
      ("trace-emit-off", "-", 0, true);
      ("flight-emit", "-", 0, true);
    ];
  Alcotest.(check (list string))
    "bench-domains parity rows"
    [ "retire/HP"; "retire/HP++"; "retire/HE"; "retire/IBR"; "pin_unpin/EBR" ]
    (List.map
       (fun k -> k.KB.spec.KB.kernel ^ "/" ^ k.KB.spec.KB.scheme)
       Hpbrcu_workload.Domains_bench.parity_kernels)

let () =
  Alcotest.run "kernel_bench"
    [
      ( "table",
        [
          Alcotest.test_case "gated-rows-allocation-free" `Quick
            test_gated_rows_allocation_free;
          Alcotest.test_case "gate-budgets" `Quick test_gate_budgets;
          Alcotest.test_case "rows-kept" `Quick test_rows_kept;
        ] );
    ]
