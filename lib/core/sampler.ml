open Relational

type strategy = Naive | Materialized

let strategy_name = function Naive -> "naive" | Materialized -> "materialized"

(* Observability (docs/OBSERVABILITY.md): Fig 4a's cost split for every
   loop built on a sampler — Algorithm 3 pays "eval.full_query_ns" per
   sampled world, Algorithm 1 "eval.view_build_ns" once plus
   "eval.maintain_ns" per view per delta batch, the walk
   "eval.walk_ns". *)
let m_samples = Obs.Metrics.counter "eval.samples"
let m_full_query_count = Obs.Metrics.counter "eval.full_query_count"
let m_full_query_ns = Obs.Metrics.counter "eval.full_query_ns"
let m_maintain_count = Obs.Metrics.counter "eval.maintain_count"
let m_maintain_ns = Obs.Metrics.counter "eval.maintain_ns"
let m_view_build_ns = Obs.Metrics.counter "eval.view_build_ns"
let m_walk_ns = Obs.Metrics.counter "eval.walk_ns"
let m_delta_rows = Obs.Metrics.counter "eval.delta_rows"
let m_delta_size = Obs.Metrics.histogram "eval.delta_size"
let m_table_rows = Obs.Metrics.gauge "eval.table_rows"

type source = Rerun of Algebra.t | Maintain of View.cache * View.t
type answer = { id : int; source : source; marginals : Marginals.t }

module IT = Hashtbl.Make (Int)

(* [answers] gives O(1) lookup by id; [order] is the fold order
   (registration order), rebuilt only when the set changes so a step
   allocates no list. *)
type t = {
  db : Database.t;
  mutable chain : Pdb.t option;
  answers : answer IT.t;
  mutable order : answer list;
  mutable samples : int;
  mutable walk_ns : int;
  mutable query_ns : int;
}

let replay db =
  { db; chain = None; answers = IT.create 16; order = []; samples = 0; walk_ns = 0;
    query_ns = 0 }

let attach t pdb =
  if Pdb.db pdb != t.db then
    invalid_arg "Core.Sampler.attach: the chain is not over the sampler's database";
  (* Updates recorded before sampling starts (burn-in, a restore's
     model construction) belong to no sample. *)
  ignore (World.drain_delta (Pdb.world pdb) : Delta.t);
  t.chain <- Some pdb

let create pdb =
  let t = replay (Pdb.db pdb) in
  attach t pdb;
  (* Table.cardinal reads a columnar table's row count without decoding
     it: every registry pays this at creation, at any corpus size. *)
  if Obs.Metrics.enabled () then
    Obs.Metrics.set_gauge m_table_rows
      (float_of_int
         (List.fold_left (fun acc tbl -> acc + Table.cardinal tbl) 0 (Database.tables t.db)));
  t

let pdb t =
  match t.chain with
  | Some pdb -> pdb
  | None -> invalid_arg "Core.Sampler: no chain attached yet"

let db t = t.db
let samples t = t.samples
let walk_ns t = t.walk_ns
let query_ns t = t.query_ns
let mem t id = IT.mem t.answers id
let count t = IT.length t.answers
let ids t = List.map (fun a -> a.id) t.order

let find t id =
  match IT.find_opt t.answers id with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Core.Sampler: unknown answer id %d" id)

let marginals t id = (find t id).marginals

let view t id =
  match (find t id).source with
  | Maintain (_, v) -> v
  | Rerun _ -> invalid_arg (Printf.sprintf "Core.Sampler: answer %d has no view" id)

let check_absent t id =
  if IT.mem t.answers id then
    invalid_arg (Printf.sprintf "Core.Sampler: answer id %d is already present" id)

let insert t a =
  IT.replace t.answers a.id a;
  t.order <- t.order @ [ a ]

let adopt t ~id ~cache view marginals =
  check_absent t id;
  insert t { id; source = Maintain (cache, view); marginals }

let add t ~id ~cache strategy algebra =
  check_absent t id;
  let t0 = Obs.Timer.now_ns () in
  let source, bag =
    match strategy with
    | Naive ->
        let bag = Obs.Timer.record m_full_query_ns (fun () -> (Eval.eval t.db algebra).Eval.bag) in
        Obs.Metrics.incr m_full_query_count;
        (Rerun algebra, bag)
    | Materialized ->
        let v = Obs.Timer.record m_view_build_ns (fun () -> View.create ~cache t.db algebra) in
        (Maintain (cache, v), View.result v)
  in
  let marginals = Marginals.create () in
  (* The world the answer was bootstrapped in is its sample 0. *)
  Marginals.observe marginals bag;
  Obs.Metrics.incr m_samples;
  t.query_ns <- t.query_ns + (Obs.Timer.now_ns () - t0);
  insert t { id; source; marginals };
  marginals

let remove t id =
  let a = find t id in
  IT.remove t.answers id;
  t.order <- List.filter (fun b -> not (Int.equal b.id id)) t.order;
  (match a.source with Maintain (cache, v) -> View.release cache v | Rerun _ -> ());
  a.marginals

let trace_strategy t =
  match List.partition (fun a -> match a.source with Rerun _ -> true | Maintain _ -> false) t.order with
  | [], _ -> "materialized"
  | _, [] -> "naive"
  | _ -> "mixed"

let fold t ~observe delta =
  let t0 = Obs.Timer.now_ns () in
  List.iter
    (fun a ->
      match a.source with
      | Maintain (_, v) ->
          Obs.Timer.record m_maintain_ns (fun () -> View.update v delta);
          Obs.Metrics.incr m_maintain_count;
          if observe then Marginals.observe a.marginals (View.result v)
      | Rerun q ->
          (* Algorithm 3 ignores the delta: it pays a full query execution
             on every sampled world. *)
          if observe then begin
            let bag = Obs.Timer.record m_full_query_ns (fun () -> (Eval.eval t.db q).Eval.bag) in
            Obs.Metrics.incr m_full_query_count;
            Marginals.observe a.marginals bag
          end)
    t.order;
  t.query_ns <- t.query_ns + (Obs.Timer.now_ns () - t0);
  if observe then begin
    t.samples <- t.samples + 1;
    Obs.Metrics.incr m_samples
  end;
  if Obs.Metrics.enabled () || Obs.Trace.enabled () then begin
    let rows = Delta.total_magnitude delta in
    Obs.Metrics.add m_delta_rows rows;
    Obs.Metrics.observe m_delta_size rows;
    if observe && Obs.Trace.enabled () then
      Obs.Trace.emit
        ~args:
          [ ("strategy", trace_strategy t);
            ("sample", string_of_int t.samples);
            ("delta_rows", string_of_int rows) ]
        "eval.sample"
  end

let absorb t =
  let delta = World.drain_delta (Pdb.world (pdb t)) in
  if not (Delta.is_empty delta) then fold t ~observe:false delta;
  delta

let step t ~thin =
  let pdb = pdb t in
  let t0 = Obs.Timer.now_ns () in
  Pdb.walk pdb ~steps:thin;
  let dt = Obs.Timer.now_ns () - t0 in
  t.walk_ns <- t.walk_ns + dt;
  Obs.Metrics.add m_walk_ns dt;
  let delta = World.drain_delta (Pdb.world pdb) in
  fold t ~observe:true delta;
  delta
