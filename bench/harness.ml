(* Shared machinery for the experiment harness: instance construction,
   evaluation loops under experiment-specific stopping rules, and
   ground-truth estimation.

   Every loop here runs on Core.Sampler, so the walk/query split the
   experiments print is the sampler's, and with metrics on (bench/main.exe
   --metrics-out) the same steps feed the sampler's "eval.*" counters. *)

open Core

type instance = {
  pdb : Pdb.t;
  crf : Ie.Crf.t;
  n_tokens : int;
}

(* Build a fresh NER probabilistic database over a seeded synthetic corpus.
   Identical (seed, n_tokens) always give the identical initial world; the
   chain seed varies independently. *)
let make_instance ?(skip_edges = true) ?params ~corpus_seed ~chain_seed ~n_tokens () =
  let docs = Ie.Corpus.generate_tokens ~seed:corpus_seed ~n_tokens in
  let db = Relational.Database.create () in
  ignore (Ie.Token_table.load db docs : Relational.Table.t);
  let world = World.create db in
  let params = match params with Some p -> p | None -> Ie.Crf.default_params () in
  let crf = Ie.Crf.create ~skip_edges ~params world in
  let rng = Mcmc.Rng.create chain_seed in
  let proposal = Ie.Proposals.batched_flip ~rng crf in
  let pdb = Pdb.create ~world ~proposal ~rng in
  { pdb; crf; n_tokens = Ie.Crf.n_tokens crf }

(* Ground truth for a query: several long materialized runs on identical
   instances, pooled — the paper estimates truth by averaging parallel
   chains (§5.4). *)
let ground_truth ?(chains = 4) ~corpus_seed ~n_tokens ~query ~thin ~samples () =
  let m =
    Parallel_eval.evaluate ~burn_in:(30 * thin) ~chains
      ~make:(fun ~chain ->
        (make_instance ~corpus_seed ~chain_seed:(987_654 + (13 * chain)) ~n_tokens ()).pdb)
      ~strategy:Evaluator.Materialized ~query ~thin ~samples ()
  in
  Marginals.estimates m

type timed_run = {
  total_s : float;  (** wall-clock of the whole evaluation *)
  query_s : float;  (** time spent obtaining answer sets (the DBMS-side cost) *)
  walk_s : float;  (** time spent inside Metropolis–Hastings *)
  samples_used : int;
  initial_error : float;
  final_error : float;
}

(* Evaluation until the squared error against [truth] halves (or
   [max_samples] is reached): a Core.Sampler loop under that stopping
   rule, reporting the sampler's walk/query split. *)
let run_until_half_error strategy inst ~query ~thin ~truth ~max_samples =
  let started = Obs.Timer.start () in
  let s = Sampler.create inst.pdb in
  let marginals =
    Sampler.add s ~id:0 ~cache:(Relational.View.cache_create ()) strategy query
  in
  let initial_error = Marginals.squared_error_to ~reference:truth marginals in
  let threshold = initial_error /. 2. in
  let err = ref initial_error in
  while !err > threshold && Sampler.samples s < max_samples do
    ignore (Sampler.step s ~thin : Relational.Delta.t);
    err := Marginals.squared_error_to ~reference:truth marginals
  done;
  { total_s = Obs.Timer.seconds (Obs.Timer.elapsed_ns started);
    query_s = Obs.Timer.seconds (Sampler.query_ns s);
    walk_s = Obs.Timer.seconds (Sampler.walk_ns s);
    samples_used = Sampler.samples s;
    initial_error;
    final_error = !err }

(* Loss-versus-time series: evaluate for a fixed number of samples, recording
   (elapsed, normalized loss) at every sample. *)
let loss_series strategy inst ~query ~thin ~samples ~truth =
  let series = ref [] in
  let _ =
    Evaluator.evaluate
      ~on_sample:(fun p ->
        let err = Marginals.squared_error_to ~reference:truth p.Evaluator.marginals in
        series := (p.Evaluator.elapsed, err) :: !series)
      strategy inst.pdb ~query ~thin ~samples
  in
  let l = List.rev !series in
  let max_err = List.fold_left (fun acc (_, e) -> max acc e) 1e-12 l in
  List.map (fun (t, e) -> (t, e /. max_err)) l

let print_header title =
  Printf.printf "\n=== %s ===\n%!" title

let print_series ~label ~stride series =
  List.iteri
    (fun i (t, e) ->
      if i mod stride = 0 then Printf.printf "  %-14s t=%8.3fs  loss=%8.5f\n" label t e)
    series;
  match List.rev series with
  | (t, e) :: _ -> Printf.printf "  %-14s t=%8.3fs  loss=%8.5f (final)\n%!" label t e
  | [] -> ()
