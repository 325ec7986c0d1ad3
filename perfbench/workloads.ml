(* The three workloads of the end-to-end benchmark.

   All three build their chain with one constructor, the daemon CLI's
   shape: a linear-chain CRF over the TOKEN table walked by
   [batched_flip ~proposals_per_batch:thin], so batch reloads land on
   sample boundaries and a WAL resume is sample-path identical. One
   sample (world) is [thin] MH proposals plus maintenance of every
   registered query, plus journaling and emission when those are on.
   No domains are spawned.

   - chain-1m: one standing query over a 1M-token corpus on an
     in-process Serve.Registry, thin 1000, no WAL and no socket. This is
     the paper's core path (MH propose, Δ-score, columnar cell write,
     O(|δ|) maintenance); the daemon, protocol and WAL layers do no work,
     so optimizing them must leave this workload unchanged.
   - serve-64q: 64 overlapping join queries (8 label-pair cores × 8 tops)
     over 100k tokens on Serve.Daemon.of_registry, thin 100, one
     streaming client and one polling client. The read-heavy fan-out
     path: shared-subplan maintenance, marginals, scheduling, estimate
     rendering, protocol encode/decode and socket flush.
   - durable-8q: 8 single-table label queries over 100k tokens on
     Serve.Daemon.of_durable, thin 100, group commit every 25 records,
     killed mid-run (Daemon.close, no checkpoint) and resumed with
     Durable.resume. The write-heavy path: WAL append, fsync,
     compaction snapshots and replay.

   The measured window alternates blocks of W/20 seconds. Without
   tracing every block is plain. With tracing, odd blocks are traced:
   program metrics are switched on, the proposal is timed from inside,
   and spans are recorded around every call into the program; even
   blocks stay plain, so the traced and untraced throughput of the same
   run give the tracing overhead. *)

let tmp_root = ".perfbench_tmp"

(* ---------- reading the program's own counters ---------- *)

let counter name =
  match Obs.Metrics.find Obs.Metrics.global name with
  | Some (Obs.Metrics.Counter n) -> n
  | _ -> 0

(* (samples, sum) of a histogram. *)
let hist name =
  match Obs.Metrics.find Obs.Metrics.global name with
  | Some (Obs.Metrics.Histogram { count; sum; _ }) -> (count, sum)
  | _ -> (0, 0)

(* The counters a traced block accumulates. *)
type counters = {
  fanout_ns : int;
  probe_rows : int;
  dedup_hits : int;
  append_ns : int;
  fsyncs : int;
  fsync_ns : int;
  writes : int;
  write_ns : int;
  replay_records : int;
}

let read_counters () =
  let _, append_ns = hist "wal.append_ns" in
  let fsyncs, fsync_ns = hist "wal.fsync_ns" in
  let writes, write_ns = hist "checkpoint.write_ns" in
  {
    fanout_ns = counter "serve.fanout_ns";
    probe_rows = counter "view.join.probe_rows";
    dedup_hits = counter "serve.dedup_hits";
    append_ns;
    fsyncs;
    fsync_ns;
    writes;
    write_ns;
    replay_records = counter "wal.replay_records";
  }

let zero_counters =
  {
    fanout_ns = 0; probe_rows = 0; dedup_hits = 0; append_ns = 0; fsyncs = 0;
    fsync_ns = 0; writes = 0; write_ns = 0; replay_records = 0;
  }

(* acc + (b - a) *)
let accumulate acc a b =
  {
    fanout_ns = acc.fanout_ns + b.fanout_ns - a.fanout_ns;
    probe_rows = acc.probe_rows + b.probe_rows - a.probe_rows;
    dedup_hits = acc.dedup_hits + b.dedup_hits - a.dedup_hits;
    append_ns = acc.append_ns + b.append_ns - a.append_ns;
    fsyncs = acc.fsyncs + b.fsyncs - a.fsyncs;
    fsync_ns = acc.fsync_ns + b.fsync_ns - a.fsync_ns;
    writes = acc.writes + b.writes - a.writes;
    write_ns = acc.write_ns + b.write_ns - a.write_ns;
    replay_records = acc.replay_records + b.replay_records - a.replay_records;
  }

(* ---------- timing the proposal from inside ---------- *)

(* Wraps the chain's proposal. While [on], it times the proposal call
   (batch reload, pick, Δ-score: lib/ie), the candidate's commit
   (World.set_field and the columnar write: lib/core), and the gaps
   between them within one walk (the MH accept test and loop:
   lib/mcmc). Each span is below the clock's 1 µs resolution, so only
   their sums over a run mean anything. Draws no randomness. Every run
   installs it, so a plain block runs the same code traced or not: off,
   it costs one flag test per proposal. *)
module Probe = struct
  type t = {
    mutable on : bool;
    mutable propose_ns : int;
    mutable commit_ns : int;
    mutable gap_ns : int;
    mutable proposals : int;
    mutable commits : int;
    mutable last_exit : int;  (* end of the previous event in this walk, -1 if none *)
  }

  let create () =
    { on = false; propose_ns = 0; commit_ns = 0; gap_ns = 0; proposals = 0; commits = 0;
      last_exit = -1 }

  let new_walk p = p.last_exit <- -1

  let wrap p (inner : Core.World.t Mcmc.Proposal.t) : Core.World.t Mcmc.Proposal.t =
   fun rng world ->
    if not p.on then inner rng world
    else begin
      let t0 = Obs.Timer.now_ns () in
      if p.last_exit >= 0 then p.gap_ns <- p.gap_ns + (t0 - p.last_exit);
      let c = inner rng world in
      let t1 = Obs.Timer.now_ns () in
      p.propose_ns <- p.propose_ns + (t1 - t0);
      p.proposals <- p.proposals + 1;
      p.last_exit <- t1;
      {
        c with
        Mcmc.Proposal.commit =
          (fun () ->
            let t0 = Obs.Timer.now_ns () in
            p.gap_ns <- p.gap_ns + (t0 - p.last_exit);
            c.Mcmc.Proposal.commit ();
            let t1 = Obs.Timer.now_ns () in
            p.commit_ns <- p.commit_ns + (t1 - t0);
            p.commits <- p.commits + 1;
            p.last_exit <- t1);
      }
    end
end

(* ---------- the chain ---------- *)

let chain_of_db ~probe ~chain_seed ~thin db =
  let world = Core.World.create db in
  let crf = Ie.Crf.create ~params:(Ie.Crf.default_params ()) world in
  let rng = Mcmc.Rng.create chain_seed in
  let proposal = Ie.Proposals.batched_flip ~proposals_per_batch:thin ~rng crf in
  Core.Pdb.create ~world ~proposal:(Probe.wrap probe proposal) ~rng

(* One sweep's worth of proposals, rounded up to whole samples so the
   burn-in ends on a batch boundary. *)
let burn_in ~n_tokens ~thin = (n_tokens + thin - 1) / thin * thin

let make_pdb ~probe ~corpus_seed ~chain_seed ~n_tokens ~thin () =
  let docs = Ie.Corpus.generate_tokens ~seed:corpus_seed ~n_tokens in
  let db = Relational.Database.create () in
  ignore (Ie.Token_table.load db docs : Relational.Table.t);
  let pdb = chain_of_db ~probe ~chain_seed ~thin db in
  Core.Pdb.walk pdb ~steps:(burn_in ~n_tokens ~thin);
  pdb

(* Build [reps] times, keep the last build, return every build time.
   Earlier builds are dropped and compacted away before the next one
   starts, so peak memory is one build's. *)
let timed_setup ~reps build =
  let last = ref None in
  let times =
    List.init reps (fun _ ->
        last := None;
        Gc.compact ();
        let t0 = Obs.Timer.start () in
        last := Some (build ());
        Obs.Timer.seconds (Obs.Timer.elapsed_ns t0))
  in
  (times, Option.get !last)

(* ---------- configuration and results ---------- *)

type config = {
  n_tokens : int;
  thin : int;
  seconds : float;  (* measured window *)
  setup_reps : int;  (* builds before the window, and again after the run *)
  min_rpcs : int;  (* the window stays open until the poller has this many round trips *)
  fsync_every : int;
  compact_ratio : float;
}

let chain_1m =
  { n_tokens = 1_000_000; thin = 1000; seconds = 20.; setup_reps = 2; min_rpcs = 0;
    fsync_every = 0; compact_ratio = 0. }

let serve_64q =
  { n_tokens = 100_000; thin = 100; seconds = 20.; setup_reps = 4; min_rpcs = 1000;
    fsync_every = 0; compact_ratio = 0. }

let durable_8q =
  { n_tokens = 100_000; thin = 100; seconds = 20.; setup_reps = 4; min_rpcs = 1000;
    fsync_every = 25; compact_ratio = 0.05 }

type metric = { name : string; value : float; unit_ : string }

type result = {
  correct : bool;
  check : string;  (* what the correctness check compared, and its outcome *)
  attempted : int;
  failed : int;
  setup_times : float list;  (* seconds per build *)
  end_to_end : metric list;
  per_layer : metric list;  (* empty unless traced *)
  notes : (string * string) list;  (* provenance *)
  ledger : (string * int) list * int;  (* per-layer self time, traced wall time *)
}

let m name value unit_ = { name; value; unit_ }

(* ---------- process facts ---------- *)

let status_field key =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i when String.equal (String.sub line 0 i) key ->
             Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
         | _ -> None)

let peak_rss_mb () =
  match status_field "VmHWM" with
  | Some v -> (
      match String.split_on_char ' ' v with
      | kb :: _ -> float_of_string kb /. 1024.
      | [] -> failwith "perfbench: malformed VmHWM")
  | None -> failwith "perfbench: no VmHWM in /proc/self/status"

(* Filesystem type of the mount holding [dir]: the longest mount point
   in /proc/self/mountinfo that prefixes its absolute path. *)
let filesystem_of dir =
  let abs = if Filename.is_relative dir then Filename.concat (Sys.getcwd ()) dir else dir in
  let under mp =
    String.equal mp "/"
    || String.equal abs mp
    || String.starts_with ~prefix:(mp ^ "/") abs
  in
  In_channel.with_open_text "/proc/self/mountinfo" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.fold_left
       (fun best line ->
         match String.split_on_char ' ' line with
         | _ :: _ :: _ :: _ :: mount_point :: rest when under mount_point -> (
             let rec after_dash = function
               | "-" :: fstype :: _ -> Some fstype
               | _ :: tl -> after_dash tl
               | [] -> None
             in
             match (after_dash rest, best) with
             | Some fs, Some (mp, _) when String.length mount_point >= String.length mp ->
                 Some (mount_point, fs)
             | Some fs, None -> Some (mount_point, fs)
             | _ -> best)
         | _ -> best)
       None
  |> function
  | Some (mp, fs) -> Printf.sprintf "%s (mount %s)" fs mp
  | None -> "unknown"

let fresh_dir name =
  if not (Sys.file_exists tmp_root) then Sys.mkdir tmp_root 0o700;
  let dir = Filename.concat tmp_root (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else Sys.mkdir dir 0o700;
  dir

let remove_dir dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end;
  if Sys.file_exists tmp_root && Array.length (Sys.readdir tmp_root) = 0 then Sys.rmdir tmp_root

(* ---------- the first samples ---------- *)

(* Traced runs gather two counts over samples 1..[k_samples], before the
   measured window: the acceptance rate and the delta rows per sample.
   They repeat exactly for a fixed seed, so a change in them means the
   sample path changed. Delta rows come from the registry's
   "serve.sample" trace events, the only tracing the benchmark turns
   on. *)
let k_samples = 100

type first_samples = {
  mutable delta_rows : int;
  mutable stats : int * int;  (* (proposed, accepted) at sample k_samples *)
}

let watch_first_samples () =
  let f = { delta_rows = 0; stats = (0, 0) } in
  Obs.Trace.set_sink
    (Obs.Trace.Custom
       (fun ev ->
         if String.equal ev.Obs.Trace.name "serve.sample" then
           match
             ( List.assoc_opt "sample" ev.Obs.Trace.args,
               List.assoc_opt "delta_rows" ev.Obs.Trace.args )
           with
           | Some n, Some d when int_of_string n <= k_samples ->
               f.delta_rows <- f.delta_rows + int_of_string d
           | _ -> ()));
  Obs.Trace.set_enabled true;
  f

(* Walk with [step] until sample [k_samples], then stop watching. *)
let finish_first_samples f pdb ~samples ~step =
  while samples () < k_samples do
    step ()
  done;
  let st = Core.Pdb.stats pdb in
  f.stats <- (st.Mcmc.Metropolis.proposed, st.Mcmc.Metropolis.accepted);
  Obs.Trace.set_enabled false;
  Obs.Trace.set_sink Obs.Trace.Null

(* ---------- the measured window ---------- *)

(* A closed block of the window; [Down] blocks held a restart. *)
type block_kind = Plain | Traced | Down

type window = {
  trace : bool;
  tracer : Ledger.t;
  probe : Probe.t;
  start_ns : int;
  mutable stop_ns : int;
  block_ns : int;
  mutable block : int;
  mutable in_traced : bool;  (* the current block is traced *)
  mutable block_start : int;
  mutable block_samples0 : int;
  mutable paused_ns : int;  (* downtime in the current block (durable-8q's restart) *)
  mutable base : counters;
  mutable acc : counters;  (* program counters summed over traced blocks *)
  mutable plain_samples : int;
  mutable plain_ns : int;
  mutable traced_samples : int;
  mutable blocks : (block_kind * int * int) list;  (* (kind, samples, ns), latest first *)
}

let traced w = w.in_traced
let elapsed_ns w = Obs.Timer.now_ns () - w.start_ns

let open_block w ~samples =
  w.block_start <- Obs.Timer.now_ns ();
  w.block_samples0 <- samples;
  w.paused_ns <- 0;
  if w.trace && w.block mod 2 = 1 then begin
    Obs.Metrics.set_enabled true;
    w.probe.Probe.on <- true;
    w.base <- read_counters ();
    w.in_traced <- true
  end

let close_block w ~samples =
  let wall = Obs.Timer.now_ns () - w.block_start in
  let n = samples - w.block_samples0 in
  let was_traced = traced w in
  if was_traced then begin
    w.in_traced <- false;
    Ledger.add_wall w.tracer wall;
    w.acc <- accumulate w.acc w.base (read_counters ());
    w.probe.Probe.on <- false;
    Obs.Metrics.set_enabled false;
    w.traced_samples <- w.traced_samples + n
  end
  else begin
    w.plain_samples <- w.plain_samples + n;
    w.plain_ns <- w.plain_ns + wall
  end;
  let kind = if w.paused_ns > 0 then Down else if was_traced then Traced else Plain in
  w.blocks <- (kind, n, wall) :: w.blocks

(* Called at the top of every loop iteration: switches blocks when the
   clock has moved into a new one. *)
let advance w ~samples =
  let b = elapsed_ns w / w.block_ns in
  if b <> w.block then begin
    close_block w ~samples;
    w.block <- b;
    open_block w ~samples
  end

let start_window ~trace ~seconds ~probe ~samples =
  let start_ns = Obs.Timer.now_ns () in
  let w =
    {
      trace; tracer = Ledger.create (); probe; start_ns; stop_ns = start_ns;
      block_ns = max 1 (int_of_float (seconds *. 1e9 /. 20.));
      block = 0; in_traced = false; block_start = start_ns; block_samples0 = samples;
      paused_ns = 0; base = zero_counters; acc = zero_counters; plain_samples = 0;
      plain_ns = 0; traced_samples = 0; blocks = [];
    }
  in
  open_block w ~samples;
  w

let finish_window w ~samples =
  close_block w ~samples;
  w.stop_ns <- Obs.Timer.now_ns ()

(* Run [call] as a span of [layer] in the current traced block,
   charging the proposal-probe and fan-out time measured inside it to
   their layers, plus any [extra] parts. Untraced blocks just call. *)
let spanned w ~layer ?(extra = fun () -> []) call =
  if not (traced w) then call ()
  else begin
    let p = w.probe in
    Probe.new_walk p;
    let prop0 = p.Probe.propose_ns and com0 = p.Probe.commit_ns and gap0 = p.Probe.gap_ns in
    let fan0 = counter "serve.fanout_ns" in
    let extra0 = extra () in
    let span = Ledger.open_span w.tracer ~layer in
    call ();
    Ledger.close_span span;
    let extra1 = extra () in
    Ledger.set_parts span
      ([ ("ie", p.Probe.propose_ns - prop0);
        ("core", p.Probe.commit_ns - com0);
        ("mcmc", p.Probe.gap_ns - gap0);
        ("relational.view+core.marginals", counter "serve.fanout_ns" - fan0) ]
      @ List.map2 (fun (layer, a) (_, b) -> (layer, b - a)) extra0 extra1)
  end

(* ---------- per-layer metrics ---------- *)

type daemon_stats = {
  updates_t : int;
  update_bytes_t : int;
  update_decode_ns_t : int;
  encode_ns_per_update : float;
  coalesced_t : int;
  thinned_t : int;
  compactions : int;
  resume_ns : int;
}

let no_daemon =
  { updates_t = 0; update_bytes_t = 0; update_decode_ns_t = 0;
    encode_ns_per_update = 0.; coalesced_t = 0; thinned_t = 0; compactions = 0; resume_ns = 0 }

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let median = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list (List.sort Float.compare xs) in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* 1 − the median, over traced blocks, of the block's sample rate
   against the mean rate of the plain blocks on either side. Per-sample
   cost drifts over a run (answer supports grow; a resume resets
   them), and comparing neighbours cancels that drift; the median
   drops blocks that took a compaction. Blocks with downtime are left
   out: the restart is not tracing's cost. *)
let trace_overhead w =
  let blocks = Array.of_list (List.rev w.blocks) in
  let rate (_, n, ns) = ratio n ns in
  let plain i =
    if i < 0 || i >= Array.length blocks then None
    else match blocks.(i) with (Plain, _, _) as b -> Some (rate b) | _ -> None
  in
  let ratios =
    List.filter_map Fun.id
      (List.init (Array.length blocks) (fun i ->
           match (blocks.(i), List.filter_map plain [ i - 1; i + 1 ]) with
           | ((Traced, _, _) as b), (_ :: _ as around) ->
               let base = List.fold_left ( +. ) 0. around /. float_of_int (List.length around) in
               if base > 0. then Some (rate b /. base) else None
           | _ -> None))
  in
  match ratios with [] -> 0. | _ -> 1. -. median ratios

let tick_stats w layer =
  let ticks = Ledger.durations w.tracer ~layer in
  match ticks with
  | [] -> (0., 0., 0.)
  | _ ->
      let sorted = Ledger.sorted_of_list (List.map snd ticks) in
      let us q = float_of_int (Ledger.percentile sorted q) /. 1e3 in
      let window = float_of_int (w.stop_ns - w.start_ns) in
      let mean_in lo hi =
        let xs =
          List.filter_map
            (fun (t0, d) ->
              let pos = float_of_int (t0 - w.start_ns) /. window in
              if pos >= lo && pos < hi then Some d else None)
            ticks
        in
        match xs with
        | [] -> 0.
        | _ -> float_of_int (List.fold_left ( + ) 0 xs) /. float_of_int (List.length xs)
      in
      let first = mean_in 0. 0.1 and last = mean_in 0.9 1. in
      (us Ledger.p50, us Ledger.p99, if first > 0. then last /. first else 0.)

let per_layer_metrics w ~first ~bootstrap_evals ~(d : daemon_stats) =
  let p = w.probe and a = w.acc in
  let n = w.traced_samples in
  let per_sample x = ratio x n in
  let totals = Ledger.layer_totals w.tracer in
  let wall = Ledger.wall_ns w.tracer in
  let layer l = Option.value ~default:0 (List.assoc_opt l totals) in
  let tick_p50, tick_p99, growth = tick_stats w "serve.daemon" in
  let daemon_self = layer "serve.daemon" in
  let acceptance = ratio (snd first.stats) (fst first.stats) in
  ( [ m "mcmc.walk_ns_per_proposal"
        (ratio (p.Probe.propose_ns + p.Probe.commit_ns + p.Probe.gap_ns) p.Probe.proposals)
        "ns/proposal";
      m "ie.propose_ns_per_proposal" (ratio p.Probe.propose_ns p.Probe.proposals) "ns/proposal";
      m "core.commit_ns_per_accept" (ratio p.Probe.commit_ns p.Probe.commits) "ns/accept";
      m "mcmc.acceptance_rate" acceptance "ratio";
      m "core.delta_rows_per_sample" (ratio first.delta_rows k_samples) "rows/sample";
      m "serve.registry.fanout_ns_per_sample" (per_sample a.fanout_ns) "ns/sample";
      m "relational.view.probe_rows_per_sample" (per_sample a.probe_rows) "rows/sample";
      m "serve.registry.dedup_hits_per_sample" (per_sample a.dedup_hits) "hits/sample";
      m "serve.registry.bootstrap_evals" (float_of_int bootstrap_evals) "evaluations";
      m "serve.daemon.tick_p50_us" tick_p50 "us";
      m "serve.daemon.tick_p99_us" tick_p99 "us";
      m "serve.daemon.tick_growth" growth "ratio";
      m "serve.daemon.self_ns_per_sample" (per_sample daemon_self) "ns/sample";
      m "serve.daemon.updates_per_sample" (per_sample d.updates_t) "updates/sample";
      m "serve.daemon.coalesced_ratio" (ratio d.coalesced_t (d.coalesced_t + d.updates_t)) "ratio";
      m "serve.daemon.thinned_per_sample" (per_sample d.thinned_t) "updates/sample";
      m "serve.protocol.bytes_per_update" (ratio d.update_bytes_t d.updates_t) "bytes/update";
      m "serve.protocol.encode_ns_per_update" d.encode_ns_per_update "ns/update";
      m "serve.protocol.decode_ns_per_update" (ratio d.update_decode_ns_t d.updates_t) "ns/update";
      m "checkpoint.wal.append_ns_per_sample" (per_sample a.append_ns) "ns/sample";
      m "checkpoint.wal.fsync_ns_per_sample" (per_sample a.fsync_ns) "ns/sample";
      m "checkpoint.wal.fsyncs_per_sample" (per_sample a.fsyncs) "fsyncs/sample";
      m "checkpoint.state.write_ns_per_compaction" (ratio a.write_ns a.writes) "ns/compaction";
      m "checkpoint.wal.compactions" (float_of_int d.compactions) "count";
      m "checkpoint.wal.replay_ns_per_record" (ratio d.resume_ns a.replay_records) "ns/record";
      m "ledger.unattributed_frac" (ratio (layer "unattributed") wall) "frac";
      m "ledger.trace_overhead_frac" (trace_overhead w) "frac" ],
    (totals, wall) )

(* ---------- chain-1m ---------- *)

let chain_sql = "SELECT STRING FROM TOKEN WHERE LABEL='B-PER'"
let check_sql = "SELECT TOK_ID, STRING FROM TOKEN WHERE LABEL='B-PER'"
let check_samples = 20

module Row_tbl = Hashtbl.Make (struct
  type t = Relational.Row.t

  let equal = Relational.Row.equal
  let hash = Relational.Row.hash
end)

let sorted_rows rows = List.sort_uniq Relational.Row.compare rows

let run_chain cfg ~corpus_seed ~chain_seed ~trace =
  let probe = Probe.create () in
  let setup_times, pdb =
    timed_setup ~reps:cfg.setup_reps (fun () ->
        make_pdb ~probe ~corpus_seed ~chain_seed ~n_tokens:cfg.n_tokens ~thin:cfg.thin ())
  in
  let reg = Serve.Registry.create pdb in
  Obs.Metrics.set_enabled trace;
  let evals0 = counter "serve.bootstrap_evals" in
  Gc.compact ();
  let t0 = Obs.Timer.start () in
  let qid = Serve.Registry.register_sql ~name:"q1" reg chain_sql in
  let register_ns = Obs.Timer.elapsed_ns t0 in
  let bootstrap_evals = counter "serve.bootstrap_evals" - evals0 in
  Obs.Metrics.set_enabled false;
  let samples () = Serve.Registry.samples reg in
  let first = if trace then Some (watch_first_samples ()) else None in
  Option.iter
    (fun f ->
      finish_first_samples f pdb ~samples ~step:(fun () -> Serve.Registry.step reg ~thin:cfg.thin))
    first;
  Gc.compact ();
  let w = start_window ~trace ~seconds:cfg.seconds ~probe ~samples:(samples ()) in
  let limit = int_of_float (cfg.seconds *. 1e9) in
  while elapsed_ns w < limit do
    advance w ~samples:(samples ());
    spanned w ~layer:"serve.registry" (fun () -> Serve.Registry.step reg ~thin:cfg.thin)
  done;
  finish_window w ~samples:(samples ());
  let window_s = Obs.Timer.seconds (w.stop_ns - w.start_ns) in
  let peak = peak_rss_mb () in
  (* Correctness: the answer maintained for the final world (the rows
     whose count the last sample raised) against a from-scratch
     evaluation on that world. At this corpus size every person string
     is B-PER somewhere, so the measured query's answer barely moves;
     a token-level twin of it (same selection, TOK_ID kept), registered
     after the window and maintained for [check_samples] samples, is
     checked too. One evaluation of the twin serves both. *)
  let check_id = Serve.Registry.register_sql ~name:"check" reg check_sql in
  Serve.Registry.run reg ~thin:cfg.thin ~samples:(check_samples - 1);
  let counts id = Core.Marginals.counts (Serve.Registry.marginals reg id) in
  let before = Row_tbl.create 1024 in
  List.iter (fun (row, c) -> Row_tbl.replace before row c) (counts qid @ counts check_id);
  Serve.Registry.step reg ~thin:cfg.thin;
  let final id =
    List.filter_map
      (fun (row, c) ->
        if c > Option.value ~default:0 (Row_tbl.find_opt before row) then Some row else None)
      (counts id)
    |> sorted_rows
  in
  let oracle_tokens =
    (Relational.Eval.eval (Core.Pdb.db pdb) (Relational.Sql.parse check_sql)).Relational.Eval.bag
    |> Relational.Bag.to_list
    |> List.filter_map (fun (row, c) -> if c > 0 then Some row else None)
    |> sorted_rows
  in
  let oracle =
    sorted_rows (List.map (fun r -> Relational.Row.make [ Relational.Row.get r 1 ]) oracle_tokens)
  in
  let maintained = final qid and maintained_tokens = final check_id in
  let correct =
    List.equal Relational.Row.equal maintained oracle
    && List.equal Relational.Row.equal maintained_tokens oracle_tokens
  in
  let per_layer, ledger =
    match first with
    | Some first -> per_layer_metrics w ~first ~bootstrap_evals ~d:no_daemon
    | None -> ([], ([], 0))
  in
  let seconds = Obs.Timer.seconds w.plain_ns in
  {
    correct;
    check =
      Printf.sprintf
        "maintained answers (%d strings, %d tokens) %s a full Relational.Eval re-run (%d, %d)"
        (List.length maintained) (List.length maintained_tokens)
        (if correct then "equal" else "DIFFER FROM")
        (List.length oracle) (List.length oracle_tokens);
    (* The one request is the registration; chain samples are not requests. *)
    attempted = 1;
    failed = 0;
    setup_times;
    end_to_end =
      [ m "samples_per_s" (float_of_int w.plain_samples /. seconds) "samples/s";
        m "register_p50_ms" (float_of_int register_ns /. 1e6) "ms";
        m "bootstrap_s" (Obs.Timer.seconds register_ns) "s";
        m "peak_rss_mb" peak "MB" ];
    per_layer;
    notes =
      [ ("n_tokens", string_of_int cfg.n_tokens);
        ("queries", "1");
        ("thin", string_of_int cfg.thin);
        ("proposals_per_sample", string_of_int cfg.thin);
        ("samples", string_of_int (samples ()));
        ("window_s", Printf.sprintf "%.3f" window_s) ];
    ledger;
  }

(* ---------- serve-64q and durable-8q: the socket daemon ---------- *)

let labels = [ "B-PER"; "I-PER"; "B-ORG"; "I-ORG"; "B-LOC"; "I-LOC"; "B-MISC"; "I-MISC" ]

(* The 8 single-table label queries of the daemon bench. *)
let label_queries =
  List.mapi
    (fun i l ->
      (Printf.sprintf "q%d" (i + 1), Printf.sprintf "SELECT STRING FROM TOKEN WHERE LABEL='%s'" l))
    labels

(* The 64 overlapping join queries of the shared-subplan bench: 8
   label-pair self-join cores, each under 8 tops that differ only above
   the join, so each core is one shared view node. *)
let join_queries =
  let cores =
    [| ("B-PER", "B-ORG"); ("B-ORG", "B-PER"); ("B-PER", "B-LOC"); ("B-LOC", "B-PER");
       ("B-ORG", "B-LOC"); ("B-LOC", "B-ORG"); ("B-PER", "B-MISC"); ("B-MISC", "B-PER") |]
  in
  let tops =
    [| (fun c -> "SELECT T1.STRING " ^ c);
       (fun c -> "SELECT T2.STRING " ^ c);
       (fun c -> "SELECT T1.STRING, T2.STRING " ^ c);
       (fun c -> "SELECT DISTINCT T1.STRING " ^ c);
       (fun c -> "SELECT DISTINCT T2.STRING " ^ c);
       (fun c -> "SELECT COUNT(*) " ^ c);
       (fun c -> "SELECT T1.STRING, COUNT(*) AS N " ^ c ^ " GROUP BY T1.STRING");
       (fun c -> "SELECT T2.STRING, COUNT(*) AS N " ^ c ^ " GROUP BY T2.STRING") |]
  in
  List.init 64 (fun i ->
      let l1, l2 = cores.(i mod 8) in
      let core =
        Printf.sprintf
          "FROM TOKEN T1, TOKEN T2 WHERE T1.DOC_ID=T2.DOC_ID AND T1.LABEL='%s' AND T2.LABEL='%s'"
          l1 l2
      in
      (Printf.sprintf "q%d" (i + 1), tops.(i / 8) core))

(* Frames a traced block keeps for the batch re-encode that prices
   Protocol.encode_response per update. *)
let retain_cap = 256

(* The block in which durable-8q is killed and resumed: once the log
   holds half a compaction's worth of records, so that the resume
   always has records to replay. *)
let crash_block = 11

type session = {
  cfg : config;
  probe : Probe.t;
  dcfg : Serve.Daemon.config;
  mutable w : window;
  mutable reg : Serve.Registry.t;
  mutable daemon : Serve.Daemon.t;
  mutable durable : Serve.Durable.t option;
  mutable streamer : Client.t;
  mutable poller : Client.t;
  replies : Serve.Protocol.response Queue.t;  (* the streamer's non-update frames *)
  mutable ids : int array;
  mutable next_q : int;
  mutable polling : bool;
  mutable outstanding : int;  (* send time of the poller's request in flight, -1 if none *)
  mutable rtts : int list;  (* poller round trips in plain blocks, ns *)
  mutable round_trips : int;  (* in any block *)
  mutable errors : int;
  mutable closed_requests : int;  (* requests written by clients since closed *)
  mutable updates_plain : int;
  mutable updates_t : int;
  mutable update_bytes_t : int;
  mutable update_decode_ns_t : int;
  retained : Serve.Protocol.response Queue.t;
  mutable coalesced_t : int;
  mutable thinned_t : int;
  mutable compactions_dead : int;
  mutable wal_bytes : int;  (* log bytes appended in ticks without a compaction *)
  mutable wal_samples : int;  (* samples walked in those ticks *)
}

let samples s = Serve.Daemon.samples s.daemon

let checkpoint_parts () =
  let _, append_ns = hist "wal.append_ns" and _, write_ns = hist "checkpoint.write_ns" in
  [ ("checkpoint", append_ns); ("checkpoint", write_ns) ]

let tick s =
  let d = s.daemon in
  let samples0 = Serve.Daemon.samples d in
  let co0 = Serve.Daemon.coalesced d and th0 = Serve.Daemon.thinned d in
  let wal0, comp0 =
    match s.durable with
    | Some du -> (Serve.Durable.wal_bytes du, Serve.Durable.compactions du)
    | None -> (0, 0)
  in
  let extra = match s.durable with Some _ -> Some checkpoint_parts | None -> None in
  spanned s.w ~layer:"serve.daemon" ?extra (fun () -> Serve.Daemon.tick d ~timeout:0.);
  (match s.durable with
  | Some du when Serve.Durable.compactions du = comp0 ->
      s.wal_bytes <- s.wal_bytes + Serve.Durable.wal_bytes du - wal0;
      s.wal_samples <- s.wal_samples + Serve.Daemon.samples d - samples0
  | _ -> ());
  if traced s.w then begin
    s.coalesced_t <- s.coalesced_t + Serve.Daemon.coalesced d - co0;
    s.thinned_t <- s.thinned_t + Serve.Daemon.thinned d - th0
  end

(* Decode every line [c] holds, handing each response to [f] with its
   byte length and, when traced, its decode time; returns the total
   decode time. *)
let drain s c f =
  let timed = traced s.w in
  let decode_ns = ref 0 in
  Client.pump c;
  let rec go () =
    match Client.next_line c with
    | None -> ()
    | Some line ->
        let resp, ns =
          if timed then begin
            let t0 = Obs.Timer.now_ns () in
            let r = Client.decode line in
            let ns = Obs.Timer.now_ns () - t0 in
            decode_ns := !decode_ns + ns;
            (r, ns)
          end
          else (Client.decode line, 0)
        in
        f resp ~bytes:(String.length line + 1) ~decode_ns:ns;
        go ()
  in
  go ();
  !decode_ns

let in_client s f =
  if not (traced s.w) then ignore (f () : int)
  else begin
    let span = Ledger.open_span s.w.tracer ~layer:"bench.client" in
    let decode_ns = f () in
    Ledger.close_span span;
    Ledger.set_parts span [ ("serve.protocol", decode_ns) ]
  end

let poll s =
  in_client s (fun () ->
      let decode_ns =
        drain s s.poller (fun resp ~bytes:_ ~decode_ns:_ ->
            (match resp with
            | Serve.Protocol.Marginals_reply _ ->
                s.round_trips <- s.round_trips + 1;
                if not (traced s.w) then
                  s.rtts <- (Obs.Timer.now_ns () - s.outstanding) :: s.rtts
            | Serve.Protocol.Error _ -> s.errors <- s.errors + 1
            | _ -> failwith "perfbench: unexpected frame on the polling connection");
            s.outstanding <- -1)
      in
      if s.polling && s.outstanding < 0 then begin
        let q = s.ids.(s.next_q mod Array.length s.ids) in
        s.next_q <- s.next_q + 1;
        s.outstanding <- Obs.Timer.now_ns ();
        Client.send s.poller (Serve.Protocol.Marginals { query = q })
      end;
      decode_ns)

let stream s =
  in_client s (fun () ->
      let timed = traced s.w in
      drain s s.streamer (fun resp ~bytes ~decode_ns ->
          match resp with
          | Serve.Protocol.Update _ ->
              if timed then begin
                s.updates_t <- s.updates_t + 1;
                s.update_bytes_t <- s.update_bytes_t + bytes;
                s.update_decode_ns_t <- s.update_decode_ns_t + decode_ns;
                Queue.add resp s.retained;
                if Queue.length s.retained > retain_cap then ignore (Queue.take s.retained)
              end
              else s.updates_plain <- s.updates_plain + 1
          | Serve.Protocol.Error _ ->
              s.errors <- s.errors + 1;
              Queue.add resp s.replies
          | other -> Queue.add other s.replies))

let step_all s =
  tick s;
  poll s;
  stream s

(* Tick until the streamer has [n] replies; returns them in order. *)
let await_replies s n =
  let rec go tries =
    if Queue.length s.replies >= n then List.init n (fun _ -> Queue.take s.replies)
    else if tries > 1_000_000 then failwith "perfbench: daemon never replied"
    else begin
      step_all s;
      go (tries + 1)
    end
  in
  go 0

let registered_id = function
  | Serve.Protocol.Registered { query; _ } -> query
  | Serve.Protocol.Error { code; msg } ->
      failwith
        (Printf.sprintf "perfbench: register refused (%s): %s"
           (Serve.Protocol.error_code_to_string code) msg)
  | _ -> failwith "perfbench: expected a registered frame"

let subscribe_all s =
  Client.send_all s.streamer
    (Array.to_list (Array.map (fun q -> Serve.Protocol.Stream { query = q; every = 0 }) s.ids));
  List.iter
    (function
      | Serve.Protocol.Streaming _ -> ()
      | _ -> failwith "perfbench: expected a streaming frame")
    (await_replies s (Array.length s.ids))

(* Registration one query at a time (a closed loop, so the per-tick
   bootstrap budget never refuses one), then one stream subscription per
   query at the scheduler's cadence. Returns the register round trips
   and the time until every query streams. *)
let bootstrap s queries =
  let t0 = Obs.Timer.start () in
  let rtts =
    List.map
      (fun (name, sql) ->
        let r0 = Obs.Timer.start () in
        Client.send s.streamer (Serve.Protocol.Register { sql; name = Some name });
        let id = registered_id (List.hd (await_replies s 1)) in
        (id, Obs.Timer.elapsed_ns r0))
      queries
  in
  s.ids <- Array.of_list (List.map fst rtts);
  subscribe_all s;
  (List.map snd rtts, Obs.Timer.elapsed_ns t0)

(* Kill the durable daemon without a checkpoint, resume it from its
   snapshot and log, and let both clients reattach by query name.
   Returns the resume time; the whole downtime, reattach included, is
   marked paused in the current block. *)
let crash_and_resume s ~dir ~policy ~make_pdb queries =
  let down = Obs.Timer.start () in
  let du = Option.get s.durable in
  s.compactions_dead <- s.compactions_dead + Serve.Durable.compactions du;
  Serve.Daemon.close s.daemon;
  s.closed_requests <- s.closed_requests + s.streamer.Client.requests + s.poller.Client.requests;
  Client.close s.streamer;
  Client.close s.poller;
  let span =
    if traced s.w then Some (Ledger.open_span s.w.tracer ~layer:"checkpoint.resume") else None
  in
  let t0 = Obs.Timer.start () in
  let durable =
    Serve.Durable.resume ~snap_path:(Filename.concat dir "daemon.ckpt")
      ~wal_path:(Filename.concat dir "daemon.wal") policy ~make_pdb
  in
  s.daemon <- Serve.Daemon.of_durable s.dcfg durable;
  s.durable <- Some durable;
  s.reg <- Serve.Durable.registry durable;
  let resume_ns = Obs.Timer.elapsed_ns t0 in
  Option.iter Ledger.close_span span;
  let sock = s.dcfg.Serve.Daemon.socket_path in
  s.streamer <- Client.connect sock;
  s.poller <- Client.connect sock;
  Client.send_all s.streamer
    (List.map (fun (name, sql) -> Serve.Protocol.Register { sql; name = Some name }) queries);
  let ids = Array.of_list (List.map registered_id (await_replies s (List.length queries))) in
  if ids <> s.ids then failwith "perfbench: reattach by name returned other query ids";
  subscribe_all s;
  s.w.paused_ns <- s.w.paused_ns + Obs.Timer.elapsed_ns down;
  resume_ns

let estimates_equal a b =
  List.equal
    (fun (ra, pa) (rb, pb) ->
      String.equal ra rb && Int64.equal (Int64.bits_of_float pa) (Int64.bits_of_float pb))
    a b

(* The uninterrupted in-process twin: same seeds, thin and queries, run
   for [samples] samples on a plain registry. *)
let twin cfg ~corpus_seed ~chain_seed queries ~samples =
  let pdb =
    make_pdb ~probe:(Probe.create ()) ~corpus_seed ~chain_seed ~n_tokens:cfg.n_tokens
      ~thin:cfg.thin ()
  in
  let reg = Serve.Registry.create pdb in
  let ids = List.map (fun (name, sql) -> Serve.Registry.register_sql ~name reg sql) queries in
  Serve.Registry.run reg ~thin:cfg.thin ~samples;
  List.map
    (fun id ->
      List.map
        (fun (row, p) -> (Relational.Row.to_string row, p))
        (Core.Marginals.estimates (Serve.Registry.marginals reg id)))
    ids

let ms ns = float_of_int ns /. 1e6

let run_daemon cfg ~name ~queries ~durable ~corpus_seed ~chain_seed ~trace =
  let probe = Probe.create () in
  let setup_times, pdb =
    timed_setup ~reps:cfg.setup_reps (fun () ->
        make_pdb ~probe ~corpus_seed ~chain_seed ~n_tokens:cfg.n_tokens ~thin:cfg.thin ())
  in
  let dir = fresh_dir name in
  Fun.protect ~finally:(fun () -> remove_dir dir) @@ fun () ->
  let n_queries = List.length queries in
  let dcfg =
    {
      (Serve.Daemon.default_config ~socket_path:(Filename.concat dir "d.sock")) with
      Serve.Daemon.max_clients = 4;
      max_plans = n_queries;
      thin = cfg.thin;
      await_queries = n_queries;
    }
  in
  let policy = { Serve.Durable.fsync_every = cfg.fsync_every; compact_ratio = cfg.compact_ratio } in
  let reg = Serve.Registry.create pdb in
  let du =
    if durable then
      Some
        (Serve.Durable.start ~snap_path:(Filename.concat dir "daemon.ckpt")
           ~wal_path:(Filename.concat dir "daemon.wal") policy reg)
    else None
  in
  let daemon =
    match du with Some d -> Serve.Daemon.of_durable dcfg d | None -> Serve.Daemon.of_registry dcfg reg
  in
  let sock = dcfg.Serve.Daemon.socket_path in
  let s =
    {
      cfg; probe; dcfg;
      w = start_window ~trace:false ~seconds:cfg.seconds ~probe ~samples:0;
      reg; daemon; durable = du; streamer = Client.connect sock; poller = Client.connect sock;
      replies = Queue.create (); ids = [||]; next_q = 0; polling = false; outstanding = -1;
      rtts = []; round_trips = 0; errors = 0; closed_requests = 0; updates_plain = 0;
      updates_t = 0; update_bytes_t = 0; update_decode_ns_t = 0; retained = Queue.create ();
      coalesced_t = 0; thinned_t = 0; compactions_dead = 0; wal_bytes = 0; wal_samples = 0;
    }
  in
  Obs.Metrics.set_enabled trace;
  let evals0 = counter "serve.bootstrap_evals" in
  Gc.compact ();
  (* Bootstrap ticks may walk samples, so the first samples are watched
     from before it. *)
  let first = if trace then Some (watch_first_samples ()) else None in
  let register_rtts, bootstrap_ns = bootstrap s queries in
  Obs.Metrics.set_enabled false;
  Option.iter
    (fun f ->
      finish_first_samples f (Serve.Registry.pdb s.reg) ~samples:(fun () -> samples s)
        ~step:(fun () -> step_all s))
    first;
  Gc.compact ();
  (* The measured window. *)
  s.w <- start_window ~trace ~seconds:cfg.seconds ~probe ~samples:(samples s);
  s.updates_plain <- 0;
  s.wal_bytes <- 0;
  s.wal_samples <- 0;
  s.polling <- true;
  let limit = int_of_float (cfg.seconds *. 1e9) and cap = int_of_float (cfg.seconds *. 6e9) in
  let resume_ns = ref 0 and crashed = ref false and draining = ref false in
  let make_pdb = chain_of_db ~probe ~chain_seed ~thin:cfg.thin in
  let enough () = s.round_trips >= cfg.min_rpcs in
  while not ((elapsed_ns s.w >= limit && enough ()) || elapsed_ns s.w >= cap) do
    advance s.w ~samples:(samples s);
    (match s.durable with
    | Some du
      when (not !crashed) && s.w.block >= crash_block
           && 2. *. float_of_int (Serve.Durable.wal_bytes du)
              >= cfg.compact_ratio *. float_of_int (Serve.Durable.snapshot_bytes du) ->
        (* Let the poller's request in flight land, then kill. *)
        draining := true;
        s.polling <- false
    | _ -> ());
    if !draining && s.outstanding < 0 then begin
      (* Samples walked before the kill stay counted in this block; those
         walked while the clients reattach do not. *)
      let walked = samples s - s.w.block_samples0 in
      resume_ns := crash_and_resume s ~dir ~policy ~make_pdb queries;
      s.w.block_samples0 <- samples s - walked;
      crashed := true;
      draining := false;
      s.polling <- true
    end;
    step_all s
  done;
  finish_window s.w ~samples:(samples s);
  let window_s = Obs.Timer.seconds (s.w.stop_ns - s.w.start_ns) in
  let wal_bytes = s.wal_bytes and wal_samples = s.wal_samples in
  let peak = peak_rss_mb () in
  (* Freeze: let the poller's last round trip land, then detach every
     query in one batch so all freeze at the same sample. *)
  s.polling <- false;
  while s.outstanding >= 0 do
    step_all s
  done;
  Client.send_all s.streamer
    (Array.to_list (Array.map (fun q -> Serve.Protocol.Detach { query = q }) s.ids));
  let frozen =
    List.map
      (function
        | Serve.Protocol.Detached { name; samples; estimates; _ } -> (name, samples, estimates)
        | _ -> failwith "perfbench: expected a detached frame")
      (await_replies s n_queries)
  in
  let compactions =
    s.compactions_dead
    + match s.durable with Some d -> Serve.Durable.compactions d | None -> 0
  in
  let attempted = s.closed_requests + s.streamer.Client.requests + s.poller.Client.requests in
  Serve.Daemon.close s.daemon;
  Client.close s.streamer;
  Client.close s.poller;
  let frozen_samples = match frozen with (_, z, _) :: _ -> z - 1 | [] -> 0 in
  let twin_est = twin cfg ~corpus_seed ~chain_seed queries ~samples:frozen_samples in
  let correct =
    List.length frozen = n_queries
    && List.for_all2
         (fun (qname, (fname, z, est)) t ->
           String.equal qname fname && z - 1 = frozen_samples && estimates_equal est t)
         (List.combine (List.map fst queries) frozen)
         twin_est
  in
  let encode_ns =
    let frames = List.of_seq (Queue.to_seq s.retained) in
    match frames with
    | [] -> 0.
    | _ ->
        let t0 = Obs.Timer.start () in
        List.iter (fun f -> ignore (Serve.Protocol.encode_response f : string)) frames;
        float_of_int (Obs.Timer.elapsed_ns t0) /. float_of_int (List.length frames)
  in
  let per_layer, ledger =
    match first with
    | None -> ([], ([], 0))
    | Some first ->
      per_layer_metrics s.w ~first ~bootstrap_evals:(counter "serve.bootstrap_evals" - evals0)
        ~d:
          {
            updates_t = s.updates_t;
            update_bytes_t = s.update_bytes_t;
            update_decode_ns_t = s.update_decode_ns_t;
            encode_ns_per_update = encode_ns;
            coalesced_t = s.coalesced_t;
            thinned_t = s.thinned_t;
            compactions;
            resume_ns = !resume_ns;
          }
  in
  let plain_s = Obs.Timer.seconds s.w.plain_ns in
  let rpcs = Ledger.sorted_of_list s.rtts in
  let n_rpcs = Array.length rpcs in
  let rpc q = if n_rpcs = 0 then 0. else ms (Ledger.percentile rpcs q) in
  let tail =
    match Ledger.highest_reportable ~n:n_rpcs with Some q -> q.Ledger.label | None -> "none"
  in
  {
    correct;
    check =
      Printf.sprintf "%d frozen marginals at sample %d %s the in-process registry twin's"
        n_queries frozen_samples (if correct then "bit-identical to" else "DIFFER FROM");
    attempted;
    failed = s.errors;
    setup_times;
    end_to_end =
      [ m "samples_per_s" (float_of_int s.w.plain_samples /. plain_s) "samples/s";
        m "register_p50_ms" (ms (Ledger.percentile (Ledger.sorted_of_list register_rtts) Ledger.p50)) "ms";
        m "bootstrap_s" (Obs.Timer.seconds bootstrap_ns) "s";
        m "peak_rss_mb" peak "MB";
        m "updates_per_s" (float_of_int s.updates_plain /. plain_s) "updates/s";
        m "rpc_p50_ms" (rpc Ledger.p50) "ms";
        m "rpc_p99_ms" (rpc Ledger.p99) "ms" ]
      @ (if durable then
           [ m "resume_s" (Obs.Timer.seconds !resume_ns) "s";
             m "wal_bytes_per_sample" (ratio wal_bytes wal_samples) "bytes/sample" ]
         else [])
      @ [ m "failed_frac" (ratio s.errors attempted) "frac" ];
    per_layer;
    notes =
      [ ("n_tokens", string_of_int cfg.n_tokens);
        ("queries", string_of_int n_queries);
        ("thin", string_of_int cfg.thin);
        ("proposals_per_sample", string_of_int cfg.thin);
        ("samples", string_of_int frozen_samples);
        ("window_s", Printf.sprintf "%.3f" window_s);
        ("rpcs", Printf.sprintf "%d (highest percentile with >= 10 beyond: %s)" n_rpcs tail);
        ("clients", "2 (streamer: every=0 subscriptions; poller: closed-loop marginals)") ]
      @ (if durable then
           [ ("fsync_every", string_of_int cfg.fsync_every);
             ("compact_ratio", Printf.sprintf "%g" cfg.compact_ratio);
             ("compactions", string_of_int compactions);
             ( "snapshot_bytes",
               string_of_int
                 (match s.durable with Some d -> Serve.Durable.snapshot_bytes d | None -> 0) );
             ("wal_filesystem", filesystem_of dir) ]
         else []);
    ledger;
  }

(* setup_s is the fastest of the [setup_reps] builds made before the
   window and of as many more made once the run is over. The builds are the
   same work; the host's speed shifts between two levels for tens of
   seconds at a time, so a median of builds lands on either level or
   between them, while the fastest of builds spread over the whole run
   nearly always sees the faster one. *)
let run cfg ~workload ~corpus_seed ~chain_seed ~trace =
  let r =
    match workload with
    | "chain-1m" -> run_chain cfg ~corpus_seed ~chain_seed ~trace
    | "serve-64q" ->
        run_daemon cfg ~name:workload ~queries:join_queries ~durable:false ~corpus_seed
          ~chain_seed ~trace
    | "durable-8q" ->
        run_daemon cfg ~name:workload ~queries:label_queries ~durable:true ~corpus_seed
          ~chain_seed ~trace
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  let after, _ =
    timed_setup ~reps:cfg.setup_reps (fun () ->
        ignore
          (make_pdb ~probe:(Probe.create ()) ~corpus_seed ~chain_seed ~n_tokens:cfg.n_tokens
             ~thin:cfg.thin ()
            : Core.Pdb.t))
  in
  let times = r.setup_times @ after in
  {
    r with
    setup_times = times;
    end_to_end = m "setup_s" (List.fold_left Float.min Float.infinity times) "s" :: r.end_to_end;
    notes =
      ("setup_reps_s", String.concat " " (List.map (Printf.sprintf "%.3f") times)) :: r.notes;
  }
