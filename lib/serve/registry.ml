open Relational

(* Observability (docs/OBSERVABILITY.md): the serving layer's cost split.
   One walked world costs one "serve.fanout_ns" span covering every
   registered view's maintenance + observation; "serve.bootstrap_evals"
   counts the full evaluations paid by late registrations — the only
   non-incremental query work this layer ever does. "serve.shared_nodes"
   gauges how many cached subplans are currently multi-parent (the
   multi-query-optimization win; its per-batch payoff is the
   "serve.dedup_hits" counter the shared nodes themselves emit). *)
let m_queries = Obs.Metrics.gauge "serve.queries"
let m_fanout_ns = Obs.Metrics.counter "serve.fanout_ns"
let m_bootstrap_evals = Obs.Metrics.counter "serve.bootstrap_evals"
let m_samples = Obs.Metrics.counter "serve.samples"
let m_shared_nodes = Obs.Metrics.gauge "serve.shared_nodes"

(* Records applied on top of a snapshot during a WAL replay
   (docs/OBSERVABILITY.md, docs/DURABILITY.md §recovery). *)
let m_replay = Obs.Metrics.counter "wal.replay_records"

type query_id = int

let id_to_int id = id
let id_of_int id = id

module IT = Hashtbl.Make (Int)

(* The sample loop, the answer order and the views live in [sampler]
   (one Core.Sampler answer per query, keyed by query id); the registry
   adds names, the optimizer, the WAL journal and snapshots. Every view is
   compiled over the one [cache], so structurally-equal subplans across
   queries resolve to shared nodes maintained once per delta batch. *)
type t = {
  sampler : Core.Sampler.t;
  names : string IT.t;
  cache : View.cache;
  mutable next_id : int;
  base_samples : int;  (* samples already taken by the state this registry was restored from *)
  mutable journal : (Checkpoint.Wal.record -> unit) option;
}

let query_count t = Core.Sampler.count t.sampler

let record_queries t =
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.set_gauge m_queries (float_of_int (query_count t));
    Obs.Metrics.set_gauge m_shared_nodes (float_of_int (View.cache_shared t.cache))
  end

let make sampler ~next_id ~base_samples =
  { sampler; names = IT.create 64; cache = View.cache_create (); next_id; base_samples;
    journal = None }

let create pdb =
  let t = make (Core.Sampler.create pdb) ~next_id:0 ~base_samples:0 in
  record_queries t;
  t

let pdb t = Core.Sampler.pdb t.sampler
let set_journal t sink = t.journal <- Some sink
let clear_journal t = t.journal <- None

(* A drained Delta.t as the pure per-table entry lists a WAL record
   carries: tables sorted by name, entries in Bag.to_list's canonical
   row order — the same canonical spelling the snapshot uses, so the
   record bytes are deterministic. *)
let wal_delta delta =
  Delta.tables delta
  |> List.sort String.compare
  |> List.filter_map (fun table ->
         match Delta.for_table delta table with
         | None -> None
         | Some bag -> (
             match Bag.to_list bag with [] -> None | entries -> Some (table, entries)))

let emit t record = match t.journal with None -> () | Some sink -> sink record

(* Fold the world's pending delta into every registered view before the
   registered set changes mid-run (Core.Sampler.absorb). The journaled
   [Absorb] precedes the event that follows it (usually a [Register]), so
   replay brings the restored database and views to exactly the state
   that event was performed under. *)
let absorb_pending t =
  let delta = Core.Sampler.absorb t.sampler in
  if not (Delta.is_empty delta) then emit t (Checkpoint.Wal.Absorb { delta = wal_delta delta })

(* Normalize once, at registration: syntactic rewrites put equal queries
   in one canonical spelling, then the stats-driven join order picks the
   cheap bootstrap plan. The *compiled* plan is what the WAL Register
   record and the snapshot carry, so replay and restore rebuild the
   identical tree (and the identical cache keys) without consulting
   statistics that may since have drifted. *)
let compile t algebra = Optimizer.reorder (Core.Sampler.db t.sampler) (Optimizer.optimize algebra)

(* Bootstrap a compiled plan: one full evaluation, whose world is the
   query's first sample (Core.Sampler.add). *)
let add_query t ~id ~name algebra =
  ignore
    (Core.Sampler.add t.sampler ~id ~cache:t.cache Core.Sampler.Materialized algebra
      : Core.Marginals.t);
  Obs.Metrics.incr m_bootstrap_evals;
  IT.replace t.names id name

let register ?name t algebra =
  absorb_pending t;
  let id = t.next_id in
  t.next_id <- id + 1;
  let name = match name with Some n -> n | None -> Printf.sprintf "q%d" id in
  let algebra = compile t algebra in
  add_query t ~id ~name algebra;
  record_queries t;
  emit t (Checkpoint.Wal.Register { id; name; algebra });
  id

let register_sql ?name t sql =
  let name = match name with Some n -> n | None -> sql in
  register ~name t (Sql.parse sql)

let remove_query t id =
  let m = Core.Sampler.remove t.sampler id in
  IT.remove t.names id;
  m

let unregister t id =
  let m = remove_query t id in
  record_queries t;
  emit t (Checkpoint.Wal.Unregister { id });
  m

let queries t = List.map (fun id -> (id, IT.find t.names id)) (Core.Sampler.ids t.sampler)

let marginals t id = Core.Sampler.marginals t.sampler id

let samples t = t.base_samples + Core.Sampler.samples t.sampler
let shared_nodes t = View.cache_shared t.cache
let cached_nodes t = View.cache_nodes t.cache

let step t ~thin =
  (* The sampler's query time spans exactly the fan-out: every view's
     maintenance plus its marginals observation, no walk. *)
  let q0 = Core.Sampler.query_ns t.sampler in
  let delta = Core.Sampler.step t.sampler ~thin in
  Obs.Metrics.add m_fanout_ns (Core.Sampler.query_ns t.sampler - q0);
  Obs.Metrics.incr m_samples;
  (match t.journal with
  | None -> ()
  | Some sink ->
      (* Post-walk counters and generator blob: replay can resume the
         exact trajectory from any record (Wal's contract). *)
      let pdb = pdb t in
      let stats = Core.Pdb.stats pdb in
      sink
        (Checkpoint.Wal.Sample
           {
             steps = Core.Pdb.steps_taken pdb;
             proposed = stats.Mcmc.Metropolis.proposed;
             accepted = stats.Mcmc.Metropolis.accepted;
             rng = Mcmc.Rng.export (Core.Pdb.rng pdb);
             delta = wal_delta delta;
           }));
  if Obs.Trace.enabled () then
    Obs.Trace.emit
      ~args:
        [ ("queries", string_of_int (query_count t));
          ("sample", string_of_int (samples t));
          ("delta_rows", string_of_int (Delta.total_magnitude delta)) ]
      "serve.sample"

let run ?on_sample t ~thin ~samples =
  for i = 1 to samples do
    step t ~thin;
    match on_sample with None -> () | Some f -> f i
  done

(* ---------- durability (lib/checkpoint) ---------- *)

let snapshot t =
  (* Bring every view up to the database's believed state first, so the
     captured node bags and the captured tables describe the same world. *)
  absorb_pending t;
  let pdb = pdb t in
  let stats = Core.Pdb.stats pdb in
  {
    Checkpoint.State.samples = samples t;
    steps = Core.Pdb.steps_taken pdb;
    proposed = stats.Mcmc.Metropolis.proposed;
    accepted = stats.Mcmc.Metropolis.accepted;
    next_id = t.next_id;
    rng = Mcmc.Rng.export (Core.Pdb.rng pdb);
    tables = Checkpoint.State.capture_tables (Core.Pdb.db pdb);
    queries =
      List.map
        (fun (id, name) ->
          let view = Core.Sampler.view t.sampler id and m = Core.Sampler.marginals t.sampler id in
          {
            Checkpoint.State.q_id = id;
            q_name = name;
            q_algebra = View.algebra view;
            q_counts = Core.Marginals.counts m;
            q_z = Core.Marginals.samples m;
            q_nodes = List.map Bag.to_list (View.node_states view);
          })
        (queries t);
  }

let corrupt fmt = Printf.ksprintf (fun msg -> raise (Checkpoint.Codec.Corrupt msg)) fmt

let bag_of_entries entries =
  let b = Bag.create () in
  List.iter (fun (row, count) -> Bag.add ~count b row) entries;
  b

(* Restored queries share one cache exactly like registered ones: each
   query's snapshot carries the (identical) bags of any shared node, and
   View.of_states overwrites idempotently, so the shared-plan world comes
   back deterministically from the recorded plans alone. *)
let restore_query t q =
  if Core.Sampler.mem t.sampler q.Checkpoint.State.q_id then
    corrupt "snapshot holds query id %d twice" q.Checkpoint.State.q_id;
  let view =
    View.of_states ~cache:t.cache (Core.Sampler.db t.sampler) q.Checkpoint.State.q_algebra
      (List.map bag_of_entries q.Checkpoint.State.q_nodes)
  in
  Core.Sampler.adopt t.sampler ~id:q.Checkpoint.State.q_id ~cache:t.cache view
    (Core.Marginals.of_counts ~samples:q.Checkpoint.State.q_z q.Checkpoint.State.q_counts);
  IT.replace t.names q.Checkpoint.State.q_id q.Checkpoint.State.q_name

(* ---------- WAL replay ---------- *)

(* Apply one WAL delta to the restored base tables, removals before
   insertions per table so a primary-key update (−old, +new within one
   batch) frees the key before reclaiming it. *)
let apply_wal_delta db (delta : Checkpoint.Wal.delta) =
  List.iter
    (fun (table, entries) ->
      let tbl = Database.table db table in
      List.iter
        (fun (row, count) ->
          if count < 0 then
            for _ = 1 to -count do
              Table.delete tbl row
            done)
        entries;
      List.iter
        (fun (row, count) ->
          if count > 0 then
            for _ = 1 to count do
              Table.insert tbl row
            done)
        entries)
    delta

(* The same batch as a Delta.t, for the sampler's fold. *)
let delta_of_wal (delta : Checkpoint.Wal.delta) =
  let d = Delta.create () in
  List.iter
    (fun (table, entries) ->
      List.iter
        (fun (row, count) ->
          if count > 0 then
            for _ = 1 to count do
              Delta.record_insert d ~table row
            done
          else
            for _ = 1 to -count do
              Delta.record_delete d ~table row
            done)
        entries)
    delta;
  d

let restore_wal ~make_pdb snap ~base_samples ~records =
  let snap_samples = snap.Checkpoint.State.samples in
  if base_samples > snap_samples then
    corrupt
      "WAL base %d is ahead of snapshot at %d samples — compaction writes the snapshot \
       before rotating, so the log cannot extend a state the snapshot has not reached"
      base_samples snap_samples;
  let db = Checkpoint.State.restore_db snap.Checkpoint.State.tables in
  let t =
    make (Core.Sampler.replay db) ~next_id:snap.Checkpoint.State.next_id
      ~base_samples:snap_samples
  in
  List.iter (restore_query t) snap.Checkpoint.State.queries;
  (* Running sample ordinal within the log. Records at or below the
     snapshot's sample count are already part of the snapshot (the
     crash-between-snapshot-and-rotation window) and are skipped; see
     docs/DURABILITY.md's recovery rules. An event record at ordinal
     [snap_samples] is live only when the log was rotated at that very
     snapshot ([base_samples = snap_samples]) — in a log with an older
     base, anything at that ordinal predates the snapshot. *)
  let seen = ref base_samples in
  let event_live () =
    !seen > snap_samples || (Int.equal !seen snap_samples && Int.equal base_samples snap_samples)
  in
  let replay delta ~observe =
    apply_wal_delta db delta;
    Core.Sampler.fold t.sampler ~observe (delta_of_wal delta);
    Obs.Metrics.incr m_replay
  in
  let last_sample = ref None in
  List.iter
    (fun record ->
      match (record : Checkpoint.Wal.record) with
      | Sample { steps; proposed; accepted; rng; delta } ->
          incr seen;
          if !seen > snap_samples then begin
            replay delta ~observe:true;
            last_sample := Some (steps, proposed, accepted, rng)
          end
      | Register { id; name; algebra } ->
          if event_live () then begin
            (* A live registry never reuses an id, so a second Register
               of a live id can only come from a damaged log. *)
            if Core.Sampler.mem t.sampler id then
              corrupt "WAL registers query id %d, which is already registered" id;
            (* Replaying a late registration repeats its bootstrap
               evaluation — the one full-query cost a WAL restore can
               pay, and only for queries registered after the last
               compaction. The record carries the already-compiled plan,
               so the rebuilt view shares the same cached subtrees the
               original did. *)
            add_query t ~id ~name algebra;
            t.next_id <- Int.max t.next_id (id + 1);
            Obs.Metrics.incr m_replay
          end
      | Unregister { id } ->
          if event_live () then begin
            (* Registry.unregister raises on the same input, so the log
               cannot hold it. *)
            if not (Core.Sampler.mem t.sampler id) then
              corrupt "WAL unregisters query id %d, which is not registered" id;
            ignore (remove_query t id : Core.Marginals.t);
            Obs.Metrics.incr m_replay
          end
      | Absorb { delta } -> if event_live () then replay delta ~observe:false)
    records;
  let pdb = make_pdb db in
  (* The chain resumes from the last replayed sample when there is one,
     else from the snapshot point. *)
  (match !last_sample with
  | Some (steps, proposed, accepted, rng) ->
      Mcmc.Rng.import (Core.Pdb.rng pdb) rng;
      Core.Pdb.restore_counters pdb ~steps ~proposed ~accepted
  | None ->
      Mcmc.Rng.import (Core.Pdb.rng pdb) snap.Checkpoint.State.rng;
      Core.Pdb.restore_counters pdb ~steps:snap.Checkpoint.State.steps
        ~proposed:snap.Checkpoint.State.proposed
        ~accepted:snap.Checkpoint.State.accepted);
  (* Raises Invalid_argument when make_pdb ignored its database. *)
  Core.Sampler.attach t.sampler pdb;
  record_queries t;
  t

let restore ~make_pdb snap =
  restore_wal ~make_pdb snap ~base_samples:snap.Checkpoint.State.samples ~records:[]
