(* Metrics (docs/OBSERVABILITY.md): "shard.count" is the effective
   partition width of the last evaluate call; "shard.merge_ns" spans the
   per-query Marginals.merge_shards union at the end of a run. *)
let m_count = Obs.Metrics.gauge "shard.count"
let m_merge_ns = Obs.Metrics.counter "shard.merge_ns"

let evaluate ?(burn_in = 0) ~shards ~make ~queries ~thin ~samples () =
  if shards < 1 then invalid_arg "Serve.Shard: shards must be >= 1";
  Obs.Metrics.set_gauge m_count (float_of_int shards);
  let per_shard =
    Mcmc.Parallel.map ~n:shards (fun i ->
        Pool.run_chain ~burn_in ~queries ~thin ~samples (make ~shard:i))
  in
  (* Keyed by query name, like Pool's cross-chain merge: a shard missing a
     query raises instead of silently pairing the wrong marginals. *)
  let by_name = List.map (Merge_keyed.marginals_by_name ~who:"Serve.Shard") per_shard in
  Obs.Timer.record m_merge_ns (fun () ->
      List.map
        (fun (name, _) ->
          (name, Core.Marginals.merge_shards (Merge_keyed.across ~who:"Serve.Shard" by_name name)))
        queries)
