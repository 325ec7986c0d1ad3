(** JSON snapshots of a metrics registry.

    A snapshot is the machine-readable record of one run — the artifact
    [bench/main.exe --metrics-out FILE] and [pdb_cli --metrics-out FILE]
    write, and the evidence behind the Fig 4a comparison (average
    maintenance cost vs average full-query cost per sampled world).

    Shape of the emitted object:

    {v
    {
      "meta":    { "cmd": "...", ... },          // caller-supplied strings
      "metrics": {
        "mcmc.proposals": 123,                   // counters: integers
        "eval.table_rows": 5000.0,               // gauges: floats
        "eval.delta_size": {                     // histograms
          "count": 99, "sum": 312, "max": 17, "mean": 3.15,
          "p50": 3, "p95": 7, "p99": 15,
          "buckets": [ { "lo": 1, "hi": 1, "count": 12 }, ... ]
        }
      },
      "derived": { "eval.materialized_speedup": 41.7, ... }
    }
    v}

    The derived section is computed from well-known metric pairs (see
    {!derived}); consumers that only care about raw data can ignore
    it. [docs/OBSERVABILITY.md] documents every name that can appear. *)

val derived : Metrics.t -> (string * float) list
(** Ratios computed from the registry's raw metrics, when the inputs are
    present and nonzero:

    - ["mcmc.acceptance_rate"] — [mcmc.accepts / mcmc.proposals];
    - ["eval.avg_full_query_ns"] — [eval.full_query_ns / eval.full_query_count];
    - ["eval.avg_maintain_ns"] — [eval.maintain_ns / eval.maintain_count];
    - ["eval.materialized_speedup"] — avg full query / avg maintain, the
      per-step Fig 4a ratio (≥ 10 at default scale on this workload);
    - ["eval.avg_delta_rows"] — [eval.delta_rows] per folded batch (the
      [eval.delta_size] histogram count). *)

val to_json : ?meta:(string * string) list -> Metrics.t -> string
(** Render the registry (plus optional metadata strings) as a JSON
    document, metrics sorted by name. *)

val write_file : ?meta:(string * string) list -> path:string -> Metrics.t -> unit
(** Write {!to_json} to [path] (truncating), followed by a newline. *)
