(** Pooled multi-query serving: c chains, each driving the same set of
    registered queries, merged per query (§5.4 chain averaging applied to
    a whole query registry at once).

    The {!Core.Parallel_eval} pattern lifted to N queries: every chain
    builds an independent PDB instance, registers the full query list in
    one {!Serve.Registry}, samples, and the per-query marginals are
    pooled across chains with {!Core.Marginals.merge}. Chains may stop at
    different times in a live deployment, so the merge must (and does)
    pool unequal sample counts — the normalizers add.

    {2 Durability}

    With a {!durability} config the pool becomes a supervisor: each chain
    persists its serving state under [dir] and a chain that raises
    mid-run is retried in place up to [retries] times with exponential
    backoff ([backoff_s], doubling per attempt) — each retry resumes
    from the chain's last durable point, and the resumed trajectory is
    the crashed chain's own. [resume = true] additionally picks up
    state left by a {e previous} process (warm restart); otherwise a
    pre-existing file is ignored until a crash makes it the recovery
    point. A chain that keeps failing past its retry budget surfaces as
    [Mcmc.Parallel.Job_failed], whose [attempts] count distinguishes a
    poison chain from exhausted transient faults.

    Two durability modes share the supervision:

    - [wal = None] — full snapshots: {!Registry.snapshot} rewritten to
      [dir/chain-<i>.ckpt] every [every] samples and at completion. Each
      checkpoint costs O(|D|), ~1039 samples' worth at 100k tokens
      (BENCH_checkpoint.json).
    - [wal = Some _] — delta-log ({!Durable}, docs/DURABILITY.md): every
      sample appends one O(|δ|) record to [dir/chain-<i>.wal], fsynced
      in group-commit batches of [fsync_every]; the snapshot is
      rewritten only when the log outgrows it by [compact_ratio] and at
      completion ([every] is unused). A retry replays the log tail over
      the snapshot, so at most [fsync_every − 1] samples of work are
      repeated.

    Each sample index passes the ["pool.sample"] failpoint
    ({!Checkpoint.Failpoint}), which is how the fault-injection tests
    kill a chain at an exact point in the stream; WAL mode adds the
    ["wal.append"], ["wal.torn_append"], ["wal.compact"], and
    ["wal.rotate"] points inside the durability path itself.

    Metrics: [checkpoint.retry.count] (restarts granted here) on top of
    the [checkpoint.*] metrics recorded by {!Checkpoint.State} and the
    [wal.*] metrics recorded by {!Checkpoint.Wal}/{!Durable}
    (docs/OBSERVABILITY.md). *)

type wal = {
  fsync_every : int;  (** group-commit batch; 0 = sync only at compaction *)
  compact_ratio : float;
      (** rotate when the log exceeds this multiple of the snapshot *)
}

type durability = {
  dir : string;  (** directory for [chain-<i>.ckpt]/[.wal] files; must exist *)
  every : int;  (** snapshot period in samples; 0 = only at completion;
                    unused in WAL mode *)
  resume : bool;  (** adopt state from a previous process at startup *)
  retries : int;  (** crash retries per chain beyond the first attempt *)
  backoff_s : float;  (** initial retry backoff, doubling per attempt *)
  remake : chain:int -> Relational.Database.t -> Core.Pdb.t;
      (** rebuild chain [i]'s PDB {e over} a restored database — the
          constructor behind {!Registry.restore}'s [make_pdb] *)
  wal : wal option;  (** [Some _] switches to delta-log durability *)
}

val run_chain :
  burn_in:int ->
  queries:(string * Relational.Algebra.t) list ->
  thin:int ->
  samples:int ->
  Core.Pdb.t ->
  Registry.t
(** One chain: burn in, register every query in order, take [samples]
    steps — {!evaluate}'s non-durable job, and {!Shard.evaluate}'s. *)

val evaluate :
  ?burn_in:int ->
  ?durability:durability ->
  chains:int ->
  make:(chain:int -> Core.Pdb.t) ->
  queries:(string * Relational.Algebra.t) list ->
  thin:int ->
  samples:int ->
  unit ->
  (string * Core.Marginals.t) list
(** [make ~chain] must build an independent instance (own database copy
    and RNG) per chain index; chains run on separate domains
    ({!Mcmc.Parallel.map}). Returns the input queries in order, each with
    marginals pooled over all [chains] ([chains × (samples + 1)]
    observations per query when uninterrupted). *)
