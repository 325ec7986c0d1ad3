(* Supervision metric (docs/OBSERVABILITY.md): "checkpoint.retry.count"
   counts chain restarts granted by the durability config — distinct from
   "parallel.retries", which counts every retried job across all users of
   Mcmc.Parallel. *)
let m_retry = Obs.Metrics.counter "checkpoint.retry.count"

type wal = { fsync_every : int; compact_ratio : float }

type durability = {
  dir : string;
  every : int;
  resume : bool;
  retries : int;
  backoff_s : float;
  remake : chain:int -> Relational.Database.t -> Core.Pdb.t;
  wal : wal option;
}

let chain_path d chain = Filename.concat d.dir (Printf.sprintf "chain-%d.ckpt" chain)
let wal_path d chain = Filename.concat d.dir (Printf.sprintf "chain-%d.wal" chain)

(* One chain's fresh start: burn in, then a registry with every query
   registered in order. Registry.create discards the burn-in delta —
   those updates are already part of the state the views bootstrap from. *)
let fresh ~burn_in ~queries pdb =
  if burn_in > 0 then Core.Pdb.walk pdb ~steps:burn_in;
  let reg = Registry.create pdb in
  List.iter (fun (name, q) -> ignore (Registry.register ~name reg q : Registry.query_id)) queries;
  reg

let run_chain ~burn_in ~queries ~thin ~samples pdb =
  let reg = fresh ~burn_in ~queries pdb in
  Registry.run reg ~thin ~samples;
  reg

let evaluate ?(burn_in = 0) ?durability ~chains ~make ~queries ~thin ~samples () =
  let fresh i = fresh ~burn_in ~queries (make ~chain:i) in
  let per_chain =
    match durability with
    | None ->
        Mcmc.Parallel.map ~n:chains (fun i -> run_chain ~burn_in ~queries ~thin ~samples (make ~chain:i))
    | Some d ->
        if d.every < 0 then invalid_arg "Serve.Pool: negative checkpoint interval";
        (* attempts.(i) > 0 marks a supervised restart: the retried job must
           resume from the checkpoint its crashed predecessor left behind even
           when the caller did not ask to resume a previous process's run.
           Written by on_retry and read by the retried job on the same domain
           (Parallel.map retries in place), so no synchronization is needed. *)
        let attempts = Array.make chains 0 in
        let on_retry ~index ~attempt _exn =
          attempts.(index) <- attempt;
          Obs.Metrics.incr m_retry
        in
        (* A chain adopts on-disk state when the caller asked for a warm
           restart or when its own crashed predecessor left it behind. *)
        let adopt i path = Sys.file_exists path && (d.resume || attempts.(i) > 0) in
        (* Full-snapshot durability: rewrite the whole State every
           [every] samples. O(|D|) per checkpoint — kept for small
           chains and as the fallback the WAL mode compacts into. *)
        let run_snapshot i =
          let path = chain_path d i in
          let reg =
            if adopt i path then
              Registry.restore
                ~make_pdb:(fun db -> d.remake ~chain:i db)
                (Checkpoint.State.load ~path)
            else fresh i
          in
          for s = Registry.samples reg + 1 to samples do
            Checkpoint.Failpoint.hit "pool.sample" ~index:s;
            Registry.step reg ~thin;
            if d.every > 0 && s mod d.every = 0 then
              ignore (Checkpoint.State.save ~path (Registry.snapshot reg) : int)
          done;
          ignore (Checkpoint.State.save ~path (Registry.snapshot reg) : int);
          reg
        in
        (* Delta-log durability: every sample appends one O(|δ|) WAL
           record; snapshots happen only when the log outgrows the last
           one ([compact_ratio]) and at completion. [every] is unused —
           compaction replaces the period. *)
        let run_wal i (w : wal) =
          let snap_path = chain_path d i in
          let policy =
            { Durable.fsync_every = w.fsync_every; compact_ratio = w.compact_ratio }
          in
          let dur =
            if adopt i snap_path then
              Durable.resume ~snap_path ~wal_path:(wal_path d i) policy
                ~make_pdb:(fun db -> d.remake ~chain:i db)
            else Durable.start ~snap_path ~wal_path:(wal_path d i) policy (fresh i)
          in
          let reg = Durable.registry dur in
          for s = Registry.samples reg + 1 to samples do
            Checkpoint.Failpoint.hit "pool.sample" ~index:s;
            Registry.step reg ~thin;
            Durable.after_sample dur
          done;
          Durable.close dur;
          reg
        in
        let run_durable i =
          match d.wal with None -> run_snapshot i | Some w -> run_wal i w
        in
        Mcmc.Parallel.map ~retries:d.retries ~backoff_s:d.backoff_s ~on_retry
          ~n:chains run_durable
  in
  (* Cross-chain merge keyed by query name: each chain reports its
     registered queries by name, so a reordered or missing registration in
     one chain is an error, not a silent mispairing (and the lookup is
     O(1) per query instead of a positional List.nth scan). *)
  let by_name = List.map (Merge_keyed.marginals_by_name ~who:"Serve.Pool") per_chain in
  List.map
    (fun (name, _) ->
      (name, Core.Marginals.merge (Merge_keyed.across ~who:"Serve.Pool" by_name name)))
    queries
