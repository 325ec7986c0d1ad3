(* The benchmark's own logic: the tail-percentile rule, span self time,
   and a smoke-sized run of every workload with its correctness check. *)

open Perfbench

let label = function Some q -> q.Ledger.label | None -> "none"

let test_percentile_rule () =
  let check n expect =
    Alcotest.(check string) (Printf.sprintf "n=%d" n) expect
      (label (Ledger.highest_reportable ~n))
  in
  check 19 "none";
  check 20 "p50";
  check 99 "p50";
  check 100 "p90";
  check 999 "p90";
  check 1000 "p99";
  check 9999 "p99";
  check 10000 "p99.9";
  let sorted = Array.init 1000 (fun i -> i + 1) in
  Alcotest.(check int) "p50 nearest rank" 500 (Ledger.percentile sorted Ledger.p50);
  Alcotest.(check int) "p99 nearest rank" 990 (Ledger.percentile sorted Ledger.p99);
  Alcotest.(check int)
    "ten samples lie beyond p99" 10
    (Array.length (List.to_seq (Array.to_list sorted) |> Seq.filter (fun x -> x > 990) |> Array.of_seq))

let test_self_time () =
  let t = Ledger.create () in
  let tick = Ledger.record t ~layer:"d" ~start_ns:100 ~stop_ns:600 ~parts:[ ("ie", 200); ("mcmc", 50) ] in
  (* A span's self time is its duration minus the parts measured inside it. *)
  Alcotest.(check int) "span minus its parts" 250 (Ledger.self_ns tick);
  let bare = Ledger.record t ~layer:"c" ~start_ns:600 ~stop_ns:700 ~parts:[] in
  Alcotest.(check int) "no parts" 100 (Ledger.self_ns bare)

let test_totals_partition_wall () =
  let t = Ledger.create () in
  Ledger.add_wall t 1000;
  let record layer start_ns stop_ns parts =
    ignore (Ledger.record t ~layer ~start_ns ~stop_ns ~parts : Ledger.span)
  in
  record "d" 100 600 [ ("ie", 200); ("mcmc", 50) ];
  record "c" 600 700 [ ("proto", 30) ];
  record "d" 700 900 [];
  let totals = Ledger.layer_totals t in
  let sum = List.fold_left (fun acc (_, ns) -> acc + ns) 0 totals in
  Alcotest.(check int) "layers add up to the wall" (Ledger.wall_ns t) sum;
  Alcotest.(check (list (pair string int)))
    "per layer"
    [ ("c", 70); ("d", 450); ("ie", 200); ("mcmc", 50); ("proto", 30); ("unattributed", 200) ]
    totals;
  Alcotest.(check (list (pair int int)))
    "durations in recording order" [ (100, 500); (700, 200) ]
    (Ledger.durations t ~layer:"d")

let test_estimates_equal () =
  let x = 0.1 +. 0.2 in
  let next = Float.succ x in
  Alcotest.(check bool) "identical" true (Workloads.estimates_equal [ ("a", x) ] [ ("a", x) ]);
  Alcotest.(check bool) "one ulp apart" false (Workloads.estimates_equal [ ("a", x) ] [ ("a", next) ]);
  Alcotest.(check bool) "other row" false (Workloads.estimates_equal [ ("a", x) ] [ ("b", x) ])

(* Seconds-long versions of the three workloads: every correctness check
   runs, traced so the ledger and all per-layer metrics are exercised. *)
let smoke ?(trace = true) workload cfg () =
  let r = Workloads.run cfg ~workload ~corpus_seed:5 ~chain_seed:7 ~trace in
  Alcotest.(check bool) ("correct: " ^ r.Workloads.check) true r.Workloads.correct;
  Alcotest.(check int) "no failed requests" 0 r.Workloads.failed;
  Alcotest.(check bool) "attempted" true (r.Workloads.attempted >= 1);
  if String.equal workload "chain-1m" then
    Alcotest.(check int) "chain-1m's one request is its registration" 1 r.Workloads.attempted;
  let value metrics name =
    match List.find_opt (fun m -> String.equal m.Workloads.name name) metrics with
    | Some m -> m.Workloads.value
    | None -> Alcotest.failf "missing metric %s" name
  in
  List.iter
    (fun name -> Alcotest.(check bool) name true (value r.Workloads.end_to_end name > 0.))
    [ "setup_s"; "samples_per_s"; "register_p50_ms"; "bootstrap_s"; "peak_rss_mb" ];
  if trace then begin
    let layer = value r.Workloads.per_layer in
    Alcotest.(check bool) "ledger adds up" true (layer "ledger.unattributed_frac" <= 0.10);
    Alcotest.(check bool) "walk measured" true (layer "mcmc.walk_ns_per_proposal" > 0.)
  end;
  if String.equal workload "durable-8q" then begin
    Alcotest.(check bool) "resumed" true (value r.Workloads.end_to_end "resume_s" > 0.);
    Alcotest.(check bool) "log bytes counted" true
      (value r.Workloads.end_to_end "wal_bytes_per_sample" > 0.);
    if trace then
      Alcotest.(check bool) "compacted during the run" true
        (value r.Workloads.per_layer "checkpoint.wal.compactions" > 2.)
  end

let smoke_cfg base n_tokens thin =
  { base with Workloads.n_tokens; thin; seconds = 1.; setup_reps = 1; min_rpcs = 20 }

let () =
  Alcotest.run "perfbench"
    [ ( "ledger",
        [ Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "totals partition wall" `Quick test_totals_partition_wall;
          Alcotest.test_case "estimates bit equality" `Quick test_estimates_equal ] );
      ( "smoke",
        [ Alcotest.test_case "chain-1m" `Quick
            (smoke "chain-1m" (smoke_cfg Workloads.chain_1m 20_000 200));
          Alcotest.test_case "serve-64q" `Quick
            (smoke "serve-64q" (smoke_cfg Workloads.serve_64q 3_000 20));
          Alcotest.test_case "durable-8q" `Quick
            (smoke "durable-8q" (smoke_cfg Workloads.durable_8q 3_000 20));
          Alcotest.test_case "durable-8q untraced" `Quick
            (smoke ~trace:false "durable-8q" (smoke_cfg Workloads.durable_8q 3_000 20)) ] ) ]
