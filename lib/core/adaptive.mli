(** Adaptive thinning (§4.1: "Adaptively adjusting k to respond to these
    various issues is one type of optimization that may be applied").

    The ergodic theorems say to use every sample; DBMS costs say samples are
    expensive. This evaluator measures both costs online and re-tunes k so
    that query-evaluation overhead stays a fixed fraction of total time:
    cheap views ⇒ small k (more samples); expensive queries ⇒ large k
    (better samples). k is clamped to [k_min, k_max] and adapts by damped
    multiplicative updates. The costs are the {!Sampler}'s walk/query
    totals; with [k_min = k_max = initial_thin] the run is
    sample-path identical to {!Evaluator.evaluate} at that thinning. *)

type report = {
  marginals : Marginals.t;
  final_thin : int;
  thin_trajectory : (int * int) list;  (** (sample index, k) at each re-tune *)
  walk_s : float;  (** the {!Sampler}'s walk total *)
  query_s : float;  (** the {!Sampler}'s query total, bootstrap included *)
}

val evaluate :
  ?strategy:Evaluator.strategy ->
  ?k_min:int ->
  ?k_max:int ->
  ?target_overhead:float ->
  ?initial_thin:int ->
  Pdb.t ->
  query:Relational.Algebra.t ->
  samples:int ->
  report
(** Defaults: materialized strategy, k ∈ [50, 50_000], query overhead
    targeted at [target_overhead] (default 0.25) of the per-sample budget,
    initial k 1000, re-tuned every 10 samples. *)
