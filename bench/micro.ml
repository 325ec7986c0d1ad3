(* A2 — Bechamel micro-benchmarks backing the paper's cost claims:

   - the MH walk-step cost is constant in the database size (§5.3);
   - delta scoring touches O(degree) factors while full scoring is O(n)
     (Appendix 9.2);
   - an incremental view update is orders of magnitude cheaper than
     re-running the query (§4.2). *)

(* pdb_lint: allow-file R11 — these benchmarks time View.update itself on
   raw MH deltas, and the mqo group's unshared-views baseline is the
   hand-rolled loop the shared registry is measured against; routing
   either through Core.Sampler would add its timing and observation to
   the spans being measured. *)

open Bechamel
open Toolkit

(* Runs a group, prints per-test estimates, and returns them as
   [(test-name, ns/run)] so callers can persist machine-readable results. *)
let run_group name tests =
  Printf.printf "\n--- %s ---\n%!" name;
  let grouped = Test.make_grouped ~name tests in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~stabilize:false () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] grouped in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) results []
  |> List.sort compare
  |> List.filter_map (fun (k, v) ->
         match Analyze.OLS.estimates v with
         | Some (t :: _) ->
           Printf.printf "  %-44s %14.1f ns/run\n%!" k t;
           Some (k, t)
         | Some [] | None ->
           Printf.printf "  %-44s (no estimate)\n%!" k;
           None)

let mh_step_tests () =
  (* One MH step over NER instances of growing size: the per-step cost must
     stay flat. *)
  List.map
    (fun n ->
      let inst = Harness.make_instance ~corpus_seed:300 ~chain_seed:1 ~n_tokens:n () in
      Test.make
        ~name:(Printf.sprintf "mh-step/%dk-tuples" (n / 1000))
        (Staged.stage (fun () -> Core.Pdb.walk inst.Harness.pdb ~steps:1)))
    [ 1_000; 10_000; 100_000 ]

let scoring_tests () =
  let params = Ie.Crf.default_params () in
  let tokens =
    Array.init 2_000 (fun i -> if i mod 97 = 0 then "IBM" else Printf.sprintf "w%d" (i mod 500))
  in
  let { Factorgraph.Templates.graph; labels; assignment } =
    Factorgraph.Templates.unroll_chain ~params ~label_domain:Ie.Labels.domain ~tokens ()
  in
  [ Test.make ~name:"score/full-graph-2k-tokens"
      (Staged.stage (fun () -> Factorgraph.Graph.log_score graph assignment));
    Test.make ~name:"score/delta-one-flip"
      (Staged.stage (fun () ->
           Factorgraph.Graph.delta_log_score graph assignment [ (labels.(500), 1) ])) ]

let view_tests () =
  let inst = Harness.make_instance ~corpus_seed:301 ~chain_seed:2 ~n_tokens:20_000 () in
  let db = Core.Pdb.db inst.Harness.pdb in
  let world = Core.Pdb.world inst.Harness.pdb in
  let query = Relational.Sql.parse "SELECT STRING FROM TOKEN WHERE LABEL='B-PER'" in
  let view = Relational.View.create db query in
  ignore (Core.World.drain_delta world : Relational.Delta.t);
  [ Test.make ~name:"query/full-rerun-20k"
      (Staged.stage (fun () -> Relational.Eval.eval db query));
    Test.make ~name:"query/view-update-100-steps"
      (Staged.stage (fun () ->
           Core.Pdb.walk inst.Harness.pdb ~steps:100;
           let delta = Core.World.drain_delta world in
           Relational.View.update view delta;
           Relational.View.result view)) ]

let index_tests () =
  (* Two identical databases; only one carries the index, so the two tests
     measure genuinely different plans. *)
  let scan_q = Relational.Sql.parse "SELECT string FROM TOKEN WHERE doc_id = 7" in
  let mk () = Core.Pdb.db (Harness.make_instance ~corpus_seed:302 ~chain_seed:3 ~n_tokens:50_000 ()).Harness.pdb in
  let db_scan = mk () in
  let db_probe = mk () in
  Relational.Table.create_index (Relational.Database.table db_probe "TOKEN") "doc_id";
  [ Test.make ~name:"select/full-scan-50k"
      (Staged.stage (fun () -> Relational.Eval.eval db_scan scan_q));
    Test.make ~name:"select/index-probe-50k"
      (Staged.stage (fun () -> Relational.Eval.eval db_probe scan_q)) ]

(* The acceptance benchmark of the indexed-IVM change: maintaining an
   equi-join view under a single-row label flip must cost the same at 1k and
   100k tuples (documents are constant-size, so the index probe touches one
   doc bucket), while re-running the query from scratch grows linearly. *)
let join_query =
  "SELECT T2.STRING FROM TOKEN T1, TOKEN T2 WHERE T1.DOC_ID=T2.DOC_ID AND \
   T1.LABEL='B-ORG' AND T2.LABEL='B-PER'"

let view_update_sizes = [ 1_000; 10_000; 100_000 ]

let size_name prefix n = Printf.sprintf "%s/%dk-tuples" prefix (n / 1000)

(* Flip one token's label back and forth through the real DML path, so every
   iteration produces a genuine one-row update delta for the view. *)
let flip_one_and_update view t =
  let label =
    match Relational.Table.find_by_pk t (Relational.Value.Int 0) with
    | Some row when Relational.Value.equal (Relational.Row.get row 4) (Text "B-PER") -> "O"
    | Some _ -> "B-PER"
    | None -> invalid_arg "bench: TOKEN has no tok_id 0"
  in
  let old_row, new_row =
    Relational.Table.update_field_by_pk t (Int 0) ~column:"label" (Text label)
  in
  let delta = Relational.Delta.create () in
  Relational.Delta.record_update delta ~table:"TOKEN" ~old_row ~new_row;
  Relational.View.update view delta;
  Relational.View.result view

let view_update_tests ?(sizes = view_update_sizes) () =
  let query = Relational.Sql.parse join_query in
  List.map
    (fun n ->
      let inst = Harness.make_instance ~corpus_seed:303 ~chain_seed:4 ~n_tokens:n () in
      let db = Core.Pdb.db inst.Harness.pdb in
      let world = Core.Pdb.world inst.Harness.pdb in
      let t = Relational.Database.table db "TOKEN" in
      let view = Relational.View.create db query in
      ignore (Core.World.drain_delta world : Relational.Delta.t);
      Test.make
        ~name:(size_name "view-update" n)
        (Staged.stage (fun () -> flip_one_and_update view t)))
    sizes

let naive_rerun_tests ?(sizes = view_update_sizes) () =
  let query = Relational.Sql.parse join_query in
  List.map
    (fun n ->
      let inst = Harness.make_instance ~corpus_seed:303 ~chain_seed:4 ~n_tokens:n () in
      let db = Core.Pdb.db inst.Harness.pdb in
      Test.make
        ~name:(size_name "naive-rerun" n)
        (Staged.stage (fun () -> Relational.Eval.eval db query)))
    sizes

(* ------------------------------------------------------------------ *)
(* Multi-query serving: N materialized queries off one shared MCMC chain
   (lib/serve) versus N independent Evaluator.evaluate runs, each walking
   its own identically seeded chain. The shared chain pays the expensive
   walk once, so the gap must grow linearly in N; and because every chain
   (shared or not) visits the identical world sequence, the per-query
   marginals must agree exactly. *)

let serve_corpus_seed = 310
let serve_chain_seed = 7

(* One cheap selection per document: distinct compiled views, disjoint
   footprints — the many-users shape the registry amortizes the walk
   over. *)
let serve_queries n =
  List.init n (fun i ->
      let label = [| "B-PER"; "B-ORG"; "B-LOC"; "B-MISC" |].(i mod 4) in
      Printf.sprintf "SELECT STRING FROM TOKEN WHERE LABEL='%s' AND DOC_ID=%d" label i)

let marginals_equal a b =
  let ea = Core.Marginals.estimates a and eb = Core.Marginals.estimates b in
  List.length ea = List.length eb
  && List.for_all2
       (fun (ra, pa) (rb, pb) ->
         Relational.Row.equal ra rb && abs_float (pa -. pb) < 1e-12)
       ea eb

let serve_instance ~n_tokens =
  (Harness.make_instance ~corpus_seed:serve_corpus_seed ~chain_seed:serve_chain_seed
     ~n_tokens ())
    .Harness.pdb

(* Wall-clock of serving [n_queries] off one shared chain vs one
   materialized Evaluator run per query. Instance construction (corpus +
   CRF) is excluded from both sides; view construction is included in
   both (registration bootstraps, Evaluator builds its view). *)
let serve_compare ~n_tokens ~n_queries ~thin ~samples =
  let queries =
    List.map (fun sql -> (sql, Relational.Sql.parse sql)) (serve_queries n_queries)
  in
  let shared_pdb = serve_instance ~n_tokens in
  let t0 = Obs.Timer.start () in
  let reg = Serve.Registry.create shared_pdb in
  let ids = List.map (fun (name, q) -> Serve.Registry.register ~name reg q) queries in
  Serve.Registry.run reg ~thin ~samples;
  let shared_ns = Obs.Timer.elapsed_ns t0 in
  let shared = List.map (Serve.Registry.marginals reg) ids in
  let independent_ns = ref 0 in
  let independent =
    List.map
      (fun (_, q) ->
        let pdb = serve_instance ~n_tokens in
        let t0 = Obs.Timer.start () in
        let m = Core.Evaluator.evaluate Core.Evaluator.Materialized pdb ~query:q ~thin ~samples in
        independent_ns := !independent_ns + Obs.Timer.elapsed_ns t0;
        m)
      queries
  in
  let equal = List.for_all2 marginals_equal shared independent in
  (shared_ns, !independent_ns, equal)

let write_serve_bench_json path ~n_tokens ~thin ~samples rows =
  let group (n_queries, shared_ns, independent_ns, equal) =
    Obs.Jsonx.obj
      [ ("queries", Obs.Jsonx.int n_queries);
        ("shared_ns", Obs.Jsonx.int shared_ns);
        ("independent_ns", Obs.Jsonx.int independent_ns);
        ("speedup", Obs.Jsonx.float (float_of_int independent_ns /. float_of_int shared_ns));
        ("marginals_equal", if equal then "true" else "false") ]
  in
  let oc = open_out path in
  output_string oc
    (Obs.Jsonx.obj
       [ ("config",
          Obs.Jsonx.obj
            [ ("n_tokens", Obs.Jsonx.int n_tokens);
              ("thin", Obs.Jsonx.int thin);
              ("samples", Obs.Jsonx.int samples) ]);
         ("multi_query", Obs.Jsonx.arr (List.map group rows)) ]);
  output_string oc "\n";
  close_out oc;
  Printf.printf "\nmulti-query bench written to %s\n%!" path

let run_serve ?(smoke = false) () =
  Harness.print_header
    (if smoke then "multi-query serving (smoke)" else "multi-query serving (shared chain vs independent)");
  let n_tokens = if smoke then 2_000 else 10_000 in
  let thin = if smoke then 50 else 100 in
  let samples = if smoke then 20 else 50 in
  let sizes = if smoke then [ 1; 8 ] else [ 1; 8; 64 ] in
  let rows =
    List.map
      (fun n_queries ->
        let shared_ns, independent_ns, equal =
          serve_compare ~n_tokens ~n_queries ~thin ~samples
        in
        Printf.printf
          "  %3d queries: shared %8.1f ms, independent %10.1f ms, speedup %6.2fx, marginals %s\n%!"
          n_queries
          (float_of_int shared_ns /. 1e6)
          (float_of_int independent_ns /. 1e6)
          (float_of_int independent_ns /. float_of_int shared_ns)
          (if equal then "equal" else "DIVERGED");
        if not equal then failwith "multi-query bench: shared-chain marginals diverged";
        (n_queries, shared_ns, independent_ns, equal))
      sizes
  in
  write_serve_bench_json "BENCH_serve.json" ~n_tokens ~thin ~samples rows

let write_view_bench_json path results =
  let fields = List.map (fun (name, ns) -> (name, Obs.Jsonx.float ns)) results in
  let oc = open_out path in
  output_string oc (Obs.Jsonx.obj [ ("ns_per_op", Obs.Jsonx.obj fields) ]);
  output_string oc "\n";
  close_out oc;
  Printf.printf "\nview-update bench written to %s\n%!" path

(* Standalone view-maintenance group (same tests the full micro suite
   runs), so CI can regenerate BENCH_view.json without paying for the
   whole Bechamel suite. Smoke restricts to the smallest size. *)
let run_view ?(smoke = false) () =
  Harness.print_header
    (if smoke then "view maintenance (smoke)" else "view maintenance (indexed IVM vs naive)");
  let sizes = if smoke then [ 1_000 ] else view_update_sizes in
  let vu = run_group "view-update-indexed" (view_update_tests ~sizes ()) in
  let naive = run_group "naive-rerun" (naive_rerun_tests ~sizes ()) in
  write_view_bench_json "BENCH_view.json" (vu @ naive)

(* ------------------------------------------------------------------ *)
(* Durability: full-registry snapshot/restore cost versus sampling
   throughput, at growing database sizes. A chain checkpointing every N
   samples pays snapshot_ns / (N * sample_ns) relative overhead — the
   JSON reports the raw terms plus that ratio's numerator expressed in
   samples, leaving the policy choice of N to the reader. *)

let checkpoint_queries =
  [ "SELECT STRING FROM TOKEN WHERE LABEL='B-PER'"; join_query ]

(* The restore-side constructor: rebuild the NER chain over a restored
   database (mirrors Harness.make_instance minus corpus generation). *)
let ner_chain_of_db ~chain_seed db =
  let world = Core.World.create db in
  let crf = Ie.Crf.create ~params:(Ie.Crf.default_params ()) world in
  let rng = Mcmc.Rng.create chain_seed in
  let proposal = Ie.Proposals.batched_flip ~rng crf in
  Core.Pdb.create ~world ~proposal ~rng

let checkpoint_compare ~n_tokens ~thin ~samples =
  let inst = Harness.make_instance ~corpus_seed:320 ~chain_seed:11 ~n_tokens () in
  let reg = Serve.Registry.create inst.Harness.pdb in
  List.iter
    (fun sql ->
      ignore
        (Serve.Registry.register ~name:sql reg (Relational.Sql.parse sql)
          : Serve.Registry.query_id))
    checkpoint_queries;
  let t0 = Obs.Timer.start () in
  Serve.Registry.run reg ~thin ~samples;
  let sample_ns = Obs.Timer.elapsed_ns t0 / samples in
  let path = Filename.temp_file "pdb_bench" ".ckpt" in
  (* Minimum over repetitions: the steady-state cost the checkpoint loop
     pays, without warm-up noise. *)
  let reps = 5 in
  let bytes = ref 0 and snapshot_ns = ref max_int and restore_ns = ref max_int in
  for _ = 1 to reps do
    let t0 = Obs.Timer.start () in
    bytes := Checkpoint.State.save ~path (Serve.Registry.snapshot reg);
    snapshot_ns := min !snapshot_ns (Obs.Timer.elapsed_ns t0)
  done;
  for _ = 1 to reps do
    let t0 = Obs.Timer.start () in
    let reg' =
      Serve.Registry.restore
        ~make_pdb:(fun db -> ner_chain_of_db ~chain_seed:11 db)
        (Checkpoint.State.load ~path)
    in
    restore_ns := min !restore_ns (Obs.Timer.elapsed_ns t0);
    ignore (Serve.Registry.samples reg' : int)
  done;
  Sys.remove path;
  (sample_ns, !snapshot_ns, !bytes, !restore_ns)

let write_checkpoint_bench_json path ~thin ~samples rows =
  let group (n_tokens, sample_ns, snapshot_ns, bytes, restore_ns) =
    Obs.Jsonx.obj
      [ ("n_tokens", Obs.Jsonx.int n_tokens);
        ("sample_ns", Obs.Jsonx.int sample_ns);
        ("snapshot_ns", Obs.Jsonx.int snapshot_ns);
        ("snapshot_bytes", Obs.Jsonx.int bytes);
        ("restore_ns", Obs.Jsonx.int restore_ns);
        ("snapshot_cost_samples",
         Obs.Jsonx.float (float_of_int snapshot_ns /. float_of_int sample_ns)) ]
  in
  let oc = open_out path in
  output_string oc
    (Obs.Jsonx.obj
       [ ("config",
          Obs.Jsonx.obj
            [ ("thin", Obs.Jsonx.int thin);
              ("samples", Obs.Jsonx.int samples);
              ("queries", Obs.Jsonx.int (List.length checkpoint_queries)) ]);
         ("checkpoint", Obs.Jsonx.arr (List.map group rows)) ]);
  output_string oc "\n";
  close_out oc;
  Printf.printf "\ncheckpoint bench written to %s\n%!" path

let run_checkpoint ?(smoke = false) () =
  Harness.print_header
    (if smoke then "checkpoint cost (smoke)" else "checkpoint cost vs sampling throughput");
  let sizes = if smoke then [ 1_000 ] else [ 1_000; 10_000; 100_000 ] in
  let thin = 100 in
  let samples = if smoke then 10 else 30 in
  let rows =
    List.map
      (fun n_tokens ->
        let sample_ns, snapshot_ns, bytes, restore_ns =
          checkpoint_compare ~n_tokens ~thin ~samples
        in
        Printf.printf
          "  %4dk tuples: sample %8.2f µs, snapshot %8.2f µs (%7d B, %5.2f samples), restore %8.2f µs\n%!"
          (n_tokens / 1000)
          (float_of_int sample_ns /. 1e3)
          (float_of_int snapshot_ns /. 1e3)
          bytes
          (float_of_int snapshot_ns /. float_of_int sample_ns)
          (float_of_int restore_ns /. 1e3);
        (n_tokens, sample_ns, snapshot_ns, bytes, restore_ns))
      sizes
  in
  write_checkpoint_bench_json "BENCH_checkpoint.json" ~thin ~samples rows

(* ------------------------------------------------------------------ *)
(* WAL durability: per-sample delta-log cost versus the full snapshot it
   replaces (BENCH_checkpoint.json's snapshot_cost_samples), plus a
   crash/replay correctness check at every size. Three identically
   seeded chains: a plain reference, a journaled twin (its marginals
   must match the reference bit-for-bit), and a twin killed halfway and
   resumed from snapshot + log (ditto). *)

(* The NER chain for the WAL bench, fresh- and restore-side. The batch
   proposal keeps a cursor (current document batch, proposals remaining)
   that no snapshot captures; aligning [proposals_per_batch] with [thin]
   makes the batch reload happen exactly at sample boundaries — which is
   also where snapshots are taken and replay resumes — so a restored
   chain rebuilds the same batch from the imported generator state and
   the continuation is sample-path identical. *)
let wal_chain_of_db ~chain_seed ~thin db =
  let world = Core.World.create db in
  let crf = Ie.Crf.create ~params:(Ie.Crf.default_params ()) world in
  let rng = Mcmc.Rng.create chain_seed in
  let proposal = Ie.Proposals.batched_flip ~proposals_per_batch:thin ~rng crf in
  Core.Pdb.create ~world ~proposal ~rng

let wal_instance ~corpus_seed ~chain_seed ~thin ~n_tokens =
  let docs = Ie.Corpus.generate_tokens ~seed:corpus_seed ~n_tokens in
  let db = Relational.Database.create () in
  ignore (Ie.Token_table.load db docs : Relational.Table.t);
  wal_chain_of_db ~chain_seed ~thin db

let wal_register_all reg =
  List.iter
    (fun sql ->
      ignore
        (Serve.Registry.register ~name:sql reg (Relational.Sql.parse sql)
          : Serve.Registry.query_id))
    checkpoint_queries

let wal_marginals reg =
  List.map
    (fun (id, _) -> Core.Marginals.estimates (Serve.Registry.marginals reg id))
    (Serve.Registry.queries reg)

let wal_marginals_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun ea eb ->
         List.length ea = List.length eb
         && List.for_all2
              (fun (ra, pa) (rb, pb) ->
                Relational.Row.equal ra rb && Int64.equal (Int64.bits_of_float pa) (Int64.bits_of_float pb))
              ea eb)
       a b

let wal_compare ~n_tokens ~thin ~samples ~fsync_every =
  (* Reference: the same chain with no durability at all. *)
  let reg0 =
    Serve.Registry.create (wal_instance ~corpus_seed:320 ~chain_seed:11 ~thin ~n_tokens)
  in
  wal_register_all reg0;
  let t0 = Obs.Timer.start () in
  Serve.Registry.run reg0 ~thin ~samples;
  let sample_ns = Obs.Timer.elapsed_ns t0 / samples in
  let reference = wal_marginals reg0 in
  let dir = Filename.temp_file "pdb_bench_wal" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
  @@ fun () ->
  let snap_path = Filename.concat dir "chain.ckpt" in
  let wal_path = Filename.concat dir "chain.wal" in
  let make_pdb db = wal_chain_of_db ~chain_seed:11 ~thin db in
  (* Journaled twin: one record per sample, compaction disabled so the
     final log length measures the pure per-sample durable bytes. *)
  let policy = { Serve.Durable.fsync_every; compact_ratio = 1e9 } in
  let reg =
    Serve.Registry.create (wal_instance ~corpus_seed:320 ~chain_seed:11 ~thin ~n_tokens)
  in
  wal_register_all reg;
  let dur = Serve.Durable.start ~snap_path ~wal_path policy reg in
  let header_bytes = String.length (Checkpoint.Wal.header ~base_samples:0) in
  let t0 = Obs.Timer.start () in
  for _ = 1 to samples do
    Serve.Registry.step reg ~thin;
    Serve.Durable.after_sample dur
  done;
  let wal_sample_ns = Obs.Timer.elapsed_ns t0 / samples in
  let bytes_per_sample =
    float_of_int (Serve.Durable.wal_bytes dur - header_bytes) /. float_of_int samples
  in
  let snapshot_bytes = Serve.Durable.snapshot_bytes dur in
  let live_equal = wal_marginals_equal reference (wal_marginals reg) in
  Serve.Durable.close dur;
  (* Crash twin: killed halfway (fsync_every 1, so everything the dead
     process appended is on disk), resumed from snapshot + log tail. *)
  let reg2 =
    Serve.Registry.create (wal_instance ~corpus_seed:320 ~chain_seed:11 ~thin ~n_tokens)
  in
  wal_register_all reg2;
  let dur2 =
    Serve.Durable.start ~snap_path ~wal_path { policy with fsync_every = 1 } reg2
  in
  for _ = 1 to samples / 2 do
    Serve.Registry.step reg2 ~thin;
    Serve.Durable.after_sample dur2
  done;
  (* The crash: drop [dur2] without closing it. *)
  let t0 = Obs.Timer.start () in
  let dur3 = Serve.Durable.resume ~snap_path ~wal_path policy ~make_pdb in
  let replay_ns = Obs.Timer.elapsed_ns t0 in
  let reg3 = Serve.Durable.registry dur3 in
  for _ = Serve.Registry.samples reg3 + 1 to samples do
    Serve.Registry.step reg3 ~thin;
    Serve.Durable.after_sample dur3
  done;
  Serve.Durable.close dur3;
  let crash_equal = wal_marginals_equal reference (wal_marginals reg3) in
  (sample_ns, wal_sample_ns, bytes_per_sample, snapshot_bytes, replay_ns, live_equal,
   crash_equal)

let write_wal_bench_json path ~thin ~samples ~fsync_every rows =
  let group
      ( n_tokens,
        sample_ns,
        wal_sample_ns,
        bytes_per_sample,
        snapshot_bytes,
        replay_ns,
        live_equal,
        crash_equal ) =
    Obs.Jsonx.obj
      [ ("n_tokens", Obs.Jsonx.int n_tokens);
        ("sample_ns", Obs.Jsonx.int sample_ns);
        ("wal_sample_ns", Obs.Jsonx.int wal_sample_ns);
        ("wal_overhead_samples",
         Obs.Jsonx.float
           (float_of_int (wal_sample_ns - sample_ns) /. float_of_int sample_ns));
        ("wal_bytes_per_sample", Obs.Jsonx.float bytes_per_sample);
        ("snapshot_bytes", Obs.Jsonx.int snapshot_bytes);
        ("amplification_vs_snapshot",
         Obs.Jsonx.float (float_of_int snapshot_bytes /. bytes_per_sample));
        ("replay_ns", Obs.Jsonx.int replay_ns);
        ("marginals_equal", (if live_equal then "true" else "false"));
        ("crash_recovery_equal", (if crash_equal then "true" else "false")) ]
  in
  let oc = open_out path in
  output_string oc
    (Obs.Jsonx.obj
       [ ("config",
          Obs.Jsonx.obj
            [ ("thin", Obs.Jsonx.int thin);
              ("samples", Obs.Jsonx.int samples);
              ("fsync_every", Obs.Jsonx.int fsync_every);
              ("queries", Obs.Jsonx.int (List.length checkpoint_queries)) ]);
         ("wal", Obs.Jsonx.arr (List.map group rows)) ]);
  output_string oc "\n";
  close_out oc;
  Printf.printf "\nwal bench written to %s\n%!" path

let run_wal ?(smoke = false) () =
  Harness.print_header
    (if smoke then "wal durability (smoke)" else "wal durability vs snapshot cost");
  let sizes = if smoke then [ 1_000 ] else [ 1_000; 10_000; 100_000 ] in
  let thin = 100 in
  let samples = if smoke then 10 else 30 in
  let fsync_every = 25 in
  let rows =
    List.map
      (fun n_tokens ->
        let ( sample_ns,
              wal_sample_ns,
              bytes_per_sample,
              snapshot_bytes,
              replay_ns,
              live_equal,
              crash_equal ) =
          wal_compare ~n_tokens ~thin ~samples ~fsync_every
        in
        Printf.printf
          "  %4dk tuples: sample %8.2f µs, +wal %8.2f µs (%+5.2f samples, %7.1f B/sample vs %7d B snapshot), replay %8.2f µs, live %b, crash %b\n%!"
          (n_tokens / 1000)
          (float_of_int sample_ns /. 1e3)
          (float_of_int wal_sample_ns /. 1e3)
          (float_of_int (wal_sample_ns - sample_ns) /. float_of_int sample_ns)
          bytes_per_sample snapshot_bytes
          (float_of_int replay_ns /. 1e3)
          live_equal crash_equal;
        ( n_tokens, sample_ns, wal_sample_ns, bytes_per_sample, snapshot_bytes,
          replay_ns, live_equal, crash_equal ))
      sizes
  in
  write_wal_bench_json "BENCH_wal.json" ~thin ~samples ~fsync_every rows

(* ------------------------------------------------------------------ *)
(* Multi-query optimization: 64 overlapping queries (8 self-join cores x
   8 tops) on ONE chain, with subplan sharing (the registry's hash-cons
   cache) versus the same compiled views maintained independently off an
   identical delta stream. Both sides pay the identical MH walk, so the
   measured quantity is the per-delta fan-out alone — the speedup
   isolates what sharing buys: each join core is probed once per batch
   instead of once per query that contains it. At 8 queries every core
   appears once (no overlap) and the ratio must sit near 1x; at 64 each
   core serves 8 tops. *)

let mqo_corpus_seed = 330
let mqo_chain_seed = 13

let mqo_cores =
  [| ("B-PER", "B-ORG"); ("B-ORG", "B-PER"); ("B-PER", "B-LOC"); ("B-LOC", "B-PER");
     ("B-ORG", "B-LOC"); ("B-LOC", "B-ORG"); ("B-PER", "B-MISC"); ("B-MISC", "B-PER") |]

(* Tops vary only above the join, so the optimizer-normalized core stays
   structurally equal across all queries that share a label pair. *)
let mqo_tops =
  [| (fun c -> "SELECT T1.STRING " ^ c);
     (fun c -> "SELECT T2.STRING " ^ c);
     (fun c -> "SELECT T1.STRING, T2.STRING " ^ c);
     (fun c -> "SELECT DISTINCT T1.STRING " ^ c);
     (fun c -> "SELECT DISTINCT T2.STRING " ^ c);
     (fun c -> "SELECT COUNT(*) " ^ c);
     (fun c -> "SELECT T1.STRING, COUNT(*) AS N " ^ c ^ " GROUP BY T1.STRING");
     (fun c -> "SELECT T2.STRING, COUNT(*) AS N " ^ c ^ " GROUP BY T2.STRING") |]

let mqo_queries n =
  List.init n (fun i ->
      let l1, l2 = mqo_cores.(i mod 8) in
      let core =
        Printf.sprintf
          "FROM TOKEN T1, TOKEN T2 WHERE T1.DOC_ID=T2.DOC_ID AND T1.LABEL='%s' AND \
           T2.LABEL='%s'"
          l1 l2
      in
      mqo_tops.(i / 8) core)

let mqo_instance ~n_tokens =
  (Harness.make_instance ~corpus_seed:mqo_corpus_seed ~chain_seed:mqo_chain_seed
     ~n_tokens ())
    .Harness.pdb

let mqo_counter name =
  match Obs.Metrics.find Obs.Metrics.global name with
  | Some (Obs.Metrics.Counter n) -> n
  | _ -> 0

(* Unshared baseline: the registry's own compile (optimize + reorder) and
   its own step loop (walk, drain, update, observe), minus the cache —
   every view maintains its whole tree itself. *)
let run_mqo_unshared ~n_tokens ~queries ~thin ~samples =
  let pdb = mqo_instance ~n_tokens in
  let db = Core.Pdb.db pdb in
  let world = Core.Pdb.world pdb in
  ignore (Core.World.drain_delta world : Relational.Delta.t);
  let reg_ns = ref 0 in
  let views =
    List.map
      (fun sql ->
        let q = Relational.Optimizer.reorder db (Relational.Sql.parse sql) in
        let t0 = Obs.Timer.start () in
        let v = Relational.View.create db q in
        let m = Core.Marginals.create () in
        Core.Marginals.observe m (Relational.View.result v);
        reg_ns := !reg_ns + Obs.Timer.elapsed_ns t0;
        (v, m))
      queries
  in
  let fan_ns = ref 0 in
  for _ = 1 to samples do
    Core.Pdb.walk pdb ~steps:thin;
    let d = Core.World.drain_delta world in
    let t0 = Obs.Timer.start () in
    List.iter
      (fun (v, m) ->
        Relational.View.update v d;
        Core.Marginals.observe m (Relational.View.result v))
      views;
    fan_ns := !fan_ns + Obs.Timer.elapsed_ns t0
  done;
  (List.map (fun (_, m) -> Core.Marginals.estimates m) views, !reg_ns, !fan_ns)

let run_mqo_shared ~n_tokens ~queries ~thin ~samples =
  let reg = Serve.Registry.create (mqo_instance ~n_tokens) in
  let reg_ns = ref 0 and first_ns = ref 0 and last_ns = ref 0 in
  let ids =
    List.mapi
      (fun i sql ->
        let t0 = Obs.Timer.start () in
        let id = Serve.Registry.register ~name:sql reg (Relational.Sql.parse sql) in
        let ns = Obs.Timer.elapsed_ns t0 in
        reg_ns := !reg_ns + ns;
        if i = 0 then first_ns := ns;
        last_ns := ns;
        id)
      queries
  in
  let fan0 = mqo_counter "serve.fanout_ns" in
  let dedup0 = mqo_counter "serve.dedup_hits" in
  Serve.Registry.run reg ~thin ~samples;
  let fan_ns = mqo_counter "serve.fanout_ns" - fan0 in
  let dedup = mqo_counter "serve.dedup_hits" - dedup0 in
  ( List.map (fun id -> Core.Marginals.estimates (Serve.Registry.marginals reg id)) ids,
    !reg_ns, !first_ns, !last_ns, fan_ns, dedup, Serve.Registry.shared_nodes reg,
    Serve.Registry.cached_nodes reg )

type mqo_row = {
  mqo_n : int;
  mqo_shared_fan : int;
  mqo_unshared_fan : int;
  mqo_shared_reg : int;
  mqo_unshared_reg : int;
  mqo_first_reg : int;
  mqo_last_reg : int;
  mqo_shared_nodes : int;
  mqo_cached_nodes : int;
  mqo_dedup : int;
  mqo_equal : bool;
}

let write_mqo_bench_json path ~n_tokens ~thin ~samples rows =
  let group r =
    Obs.Jsonx.obj
      [ ("queries", Obs.Jsonx.int r.mqo_n);
        ("shared_fanout_ns", Obs.Jsonx.int r.mqo_shared_fan);
        ("unshared_fanout_ns", Obs.Jsonx.int r.mqo_unshared_fan);
        ("fanout_speedup",
         Obs.Jsonx.float (float_of_int r.mqo_unshared_fan /. float_of_int r.mqo_shared_fan));
        ("shared_register_ns", Obs.Jsonx.int r.mqo_shared_reg);
        ("unshared_register_ns", Obs.Jsonx.int r.mqo_unshared_reg);
        ("first_register_ns", Obs.Jsonx.int r.mqo_first_reg);
        ("last_register_ns", Obs.Jsonx.int r.mqo_last_reg);
        ("shared_nodes", Obs.Jsonx.int r.mqo_shared_nodes);
        ("cached_nodes", Obs.Jsonx.int r.mqo_cached_nodes);
        ("dedup_hits", Obs.Jsonx.int r.mqo_dedup);
        ("marginals_equal", if r.mqo_equal then "true" else "false") ]
  in
  let oc = open_out path in
  output_string oc
    (Obs.Jsonx.obj
       [ ("config",
          Obs.Jsonx.obj
            [ ("n_tokens", Obs.Jsonx.int n_tokens);
              ("thin", Obs.Jsonx.int thin);
              ("samples", Obs.Jsonx.int samples) ]);
         ("mqo", Obs.Jsonx.arr (List.map group rows)) ]);
  output_string oc "\n";
  close_out oc;
  Printf.printf "\nmqo bench written to %s\n%!" path

let run_mqo ?(smoke = false) () =
  Harness.print_header
    (if smoke then "multi-query optimization (smoke)"
     else "multi-query optimization (shared subplans vs unshared views)");
  (* The shared side's fan-out cost is read off the serve.fanout_ns /
     serve.dedup_hits counters, so metrics must be on for this group. *)
  let was_enabled = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled was_enabled) @@ fun () ->
  let n_tokens = if smoke then 2_000 else 10_000 in
  let thin = if smoke then 50 else 100 in
  let samples = if smoke then 10 else 40 in
  let sizes = [ 8; 64 ] in
  let rows =
    List.map
      (fun n ->
        let queries = mqo_queries n in
        let shared, s_reg, s_first, s_last, s_fan, dedup, shared_nodes, cached_nodes =
          run_mqo_shared ~n_tokens ~queries ~thin ~samples
        in
        let unshared, u_reg, u_fan = run_mqo_unshared ~n_tokens ~queries ~thin ~samples in
        let equal = wal_marginals_equal shared unshared in
        Printf.printf
          "  %3d queries: fanout shared %8.1f ms vs unshared %8.1f ms (%5.2fx), register \
           shared %6.1f ms (1st %6.2f, %dth %6.2f) vs unshared %6.1f ms, %d/%d shared \
           nodes, %d dedup hits, marginals %s\n%!"
          n
          (float_of_int s_fan /. 1e6)
          (float_of_int u_fan /. 1e6)
          (float_of_int u_fan /. float_of_int s_fan)
          (float_of_int s_reg /. 1e6)
          (float_of_int s_first /. 1e6)
          n
          (float_of_int s_last /. 1e6)
          (float_of_int u_reg /. 1e6)
          shared_nodes cached_nodes dedup
          (if equal then "equal" else "DIVERGED");
        if not equal then failwith "mqo bench: shared-subplan marginals diverged";
        { mqo_n = n; mqo_shared_fan = s_fan; mqo_unshared_fan = u_fan;
          mqo_shared_reg = s_reg; mqo_unshared_reg = u_reg; mqo_first_reg = s_first;
          mqo_last_reg = s_last; mqo_shared_nodes = shared_nodes;
          mqo_cached_nodes = cached_nodes; mqo_dedup = dedup; mqo_equal = equal })
      sizes
  in
  write_mqo_bench_json "BENCH_mqo.json" ~n_tokens ~thin ~samples rows

let run () =
  Harness.print_header "A2 / micro-benchmarks (Bechamel)";
  ignore (run_group "mh-step-constant-in-n" (mh_step_tests ()) : (string * float) list);
  ignore (run_group "delta-vs-full-scoring" (scoring_tests ()) : (string * float) list);
  ignore (run_group "view-update-vs-full-query" (view_tests ()) : (string * float) list);
  ignore (run_group "index-probe-vs-scan" (index_tests ()) : (string * float) list);
  let vu = run_group "view-update-indexed" (view_update_tests ()) in
  let naive = run_group "naive-rerun" (naive_rerun_tests ()) in
  write_view_bench_json "BENCH_view.json" (vu @ naive)
