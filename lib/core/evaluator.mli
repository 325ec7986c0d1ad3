(** Query evaluation over the probabilistic database.

    Two strategies, identical estimates (they observe the same chain):

    - {!strategy.Naive} — Algorithm 3: re-run the full query over every
      sampled world.
    - {!strategy.Materialized} — Algorithm 1: run the full query once on the
      initial world, then maintain the answer incrementally from the MCMC
      deltas (Eq. 6) with multiset bookkeeping.

    Both observe the initial world as the first sample, then [samples]
    further worlds separated by [thin] MH steps. [burn_in] (default 0) MH
    steps are taken before the first observation and never counted.

    A one-answer {!Sampler} plus a [for] loop: the metrics and trace
    events are the sampler's. *)

type strategy = Sampler.strategy = Naive | Materialized

type progress = {
  sample : int;  (** 0 is the initial world *)
  elapsed : float;  (** seconds since evaluation started *)
  marginals : Marginals.t;  (** live estimate — read-only *)
}

val evaluate :
  ?on_sample:(progress -> unit) ->
  ?burn_in:int ->
  strategy ->
  Pdb.t ->
  query:Relational.Algebra.t ->
  thin:int ->
  samples:int ->
  Marginals.t

val evaluate_sql :
  ?on_sample:(progress -> unit) ->
  ?burn_in:int ->
  strategy ->
  Pdb.t ->
  sql:string ->
  thin:int ->
  samples:int ->
  Marginals.t

val strategy_name : strategy -> string
