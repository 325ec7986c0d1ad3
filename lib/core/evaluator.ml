type strategy = Sampler.strategy = Naive | Materialized

type progress = {
  sample : int;
  elapsed : float;
  marginals : Marginals.t;
}

let strategy_name = Sampler.strategy_name

let evaluate ?on_sample ?(burn_in = 0) strategy pdb ~query ~thin ~samples =
  let started = Obs.Timer.start () in
  if burn_in > 0 then Pdb.walk pdb ~steps:burn_in;
  let s = Sampler.create pdb in
  let marginals = Sampler.add s ~id:0 ~cache:(Relational.View.cache_create ()) strategy query in
  let notify sample =
    match on_sample with
    | None -> ()
    | Some f ->
      f { sample; elapsed = Obs.Timer.seconds (Obs.Timer.elapsed_ns started); marginals }
  in
  notify 0;
  for i = 1 to samples do
    ignore (Sampler.step s ~thin : Relational.Delta.t);
    notify i
  done;
  marginals

let evaluate_sql ?on_sample ?burn_in strategy pdb ~sql ~thin ~samples =
  evaluate ?on_sample ?burn_in strategy pdb ~query:(Relational.Sql.parse sql) ~thin ~samples
