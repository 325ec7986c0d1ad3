(** Any-time top-k answers (the MystiQ-style ranking workload [22,5]).

    Role in the pipeline (§4.1–4.2): the consumer that most benefits from
    Algorithm 1 — it runs the materialized evaluator so each extra sample
    costs only a delta maintenance step (Eq. 6), and uses {!Confidence}
    intervals to stop as soon as the ranking is stable.

    Samples with a one-answer materialized {!Sampler} and stops early once the k-th
    and (k+1)-th ranked tuples' Wilson intervals separate — the ranking is
    then stable at the requested confidence, so further sampling is wasted
    work. Interval checks treat thinned samples as independent, the same
    caveat as {!Confidence}. *)

type result = {
  ranking : (Relational.Row.t * float) list;  (** k best tuples with probabilities *)
  samples_used : int;
  separated : bool;  (** true when early-stopping fired *)
}

val evaluate :
  ?z_score:float ->
  ?min_samples:int ->
  ?max_samples:int ->
  Pdb.t ->
  query:Relational.Algebra.t ->
  k:int ->
  thin:int ->
  result
(** Defaults: [z_score] 1.96, [min_samples] 20, [max_samples] 2000. *)
