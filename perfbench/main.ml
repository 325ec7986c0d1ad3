(* End-to-end benchmark entry point.

   pdb_lint: allow-file R10 — an executable entry point: it parses its
   own argv exactly like bench/main.ml and bin/ do, and passes the seed
   down as explicit arguments.

   Usage (from the repository root):
     dune exec perfbench/main.exe -- --workload chain-1m --seed 1 --seconds 10 --trace 0

   Workloads: chain-1m, serve-64q, durable-8q (see workloads.ml and
   README.md). The corpus is generated from --seed and the chain's
   generator is seeded with --seed + 2. --trace 0 measures the
   end-to-end metrics; --trace 1 also splits the wall time across the
   library layers. The report lines name every metric with its unit; the
   last line is one JSON object with the metrics listed in
   BENCHMARK.json. A failed correctness check prints no metrics and
   exits 1. *)

(* The metrics the last line carries, as named in BENCHMARK.json. *)
let end_to_end = [ "setup_s"; "samples_per_s"; "peak_rss_mb" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (chain-1m|serve-64q|durable-8q) --seed N --seconds S --trace (0|1)";
  exit 2

let rec parse acc = function
  | [] -> acc
  | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      parse ((String.sub flag 2 (String.length flag - 2), value) :: acc) rest
  | _ -> usage ()

let () =
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k args with Some v -> v | None -> usage () in
  let int_arg k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" in
  let seed = int_arg "seed" in
  let seconds = int_arg "seconds" in
  let trace =
    match int_arg "trace" with 0 -> false | 1 -> true | _ -> usage ()
  in
  let cfg =
    match workload with
    | "chain-1m" -> Perfbench.Workloads.chain_1m
    | "serve-64q" -> Perfbench.Workloads.serve_64q
    | "durable-8q" -> Perfbench.Workloads.durable_8q
    | _ -> usage ()
  in
  if seconds < 1 then usage ();
  let cfg = { cfg with Perfbench.Workloads.seconds = float_of_int seconds } in
  let r =
    Perfbench.Workloads.run cfg ~workload ~corpus_seed:seed ~chain_seed:(seed + 2) ~trace
  in
  let open Perfbench.Workloads in
  Printf.printf "workload %s, seed %d, %s\n" workload seed
    (if trace then "traced run" else "untraced run");
  List.iter (fun (k, v) -> Printf.printf "  %-22s %s\n" k v) r.notes;
  Printf.printf "  %-22s 1\n  %-22s %d\n" "domains" "nproc" (Domain.recommended_domain_count ());
  Printf.printf "check: %s\n" r.check;
  Printf.printf "requests attempted %d, failed %d\n" r.attempted r.failed;
  List.iter
    (fun mt -> Printf.printf "metric %-40s %.6g %s\n" mt.name mt.value mt.unit_)
    (r.end_to_end @ r.per_layer);
  (if trace then
     let totals, wall = r.ledger in
     Printf.printf "ledger (traced blocks, %.3f s wall):\n" (Obs.Timer.seconds wall);
     List.iter
       (fun (layer, ns) ->
         Printf.printf "  %-34s %10.3f ms  %6.2f%%\n" layer (float_of_int ns /. 1e6)
           (if wall > 0 then 100. *. float_of_int ns /. float_of_int wall else 0.))
       totals;
     match List.find_opt (fun mt -> String.equal mt.name "ledger.unattributed_frac") r.per_layer with
     | Some mt when mt.value > 0.10 ->
         Printf.printf
           "ledger: %.1f%% of traced wall time is outside every span (the benchmark's own loop)\n"
           (100. *. mt.value)
     | _ -> ());
  let json_metric mt =
    (mt.name, Obs.Jsonx.obj [ ("value", Obs.Jsonx.float mt.value); ("unit", Obs.Jsonx.str mt.unit_) ])
  in
  let metrics =
    if not r.correct then []
    else if trace then List.map json_metric r.per_layer
    else
      List.map
        (fun name -> json_metric (List.find (fun mt -> String.equal mt.name name) r.end_to_end))
        end_to_end
  in
  print_endline
    (Obs.Jsonx.obj
       [ ("correct", if r.correct then "true" else "false");
         ("attempted", Obs.Jsonx.int r.attempted);
         ("failed", Obs.Jsonx.int r.failed);
         ("metrics", Obs.Jsonx.obj metrics) ]);
  if not r.correct then exit 1
