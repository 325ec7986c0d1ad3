(** The sample loop (§4.2): one {!Pdb} chain driving an ordered set of
    query answers.

    Algorithm 1 walks [thin] Metropolis–Hastings steps, drains the
    world's delta, folds it into the materialized answer (Eq. 6) and
    observes the answer's tuples; Algorithm 3 is the same loop with a
    full re-run in place of the fold. A sampler runs that loop for every
    answer it holds, so one query ({!Evaluator}, {!Adaptive},
    {!Topk_eval}) and many queries on one chain (the serving registry)
    share one step, one timing and one set of metrics.

    Answers are keyed by caller-chosen ids and folded in the order they
    were added. Each is a re-run ([Naive]) or a {!Relational.View.t} on a
    caller-supplied {!Relational.View.cache} ([Materialized]; views on
    one cache share structurally-equal subplans), with its own
    {!Marginals.t}. The sampler keeps running totals of walk time and
    answer time, and with metrics on feeds the [eval.*] counters and the
    [eval.sample] trace event (docs/OBSERVABILITY.md). *)

type strategy = Naive | Materialized

val strategy_name : strategy -> string

type t

val create : Pdb.t -> t
(** No answers yet. The chain's pending delta is discarded: it belongs
    to no sample and is already in the state answers bootstrap from. *)

val replay : Relational.Database.t -> t
(** A sampler over [db] with no chain yet, for rebuilding answers from a
    log before the chain over the rebuilt database exists: {!step} and
    {!absorb} raise [Invalid_argument] until {!attach}. *)

val attach : t -> Pdb.t -> unit
(** Give a {!replay} sampler its chain, discarding the chain's pending
    delta. Raises [Invalid_argument] if [pdb] is over another
    database. *)

val pdb : t -> Pdb.t
val db : t -> Relational.Database.t

val add : t -> id:int -> cache:Relational.View.cache -> strategy -> Relational.Algebra.t -> Marginals.t
(** Bootstrap an answer on the current world — a full evaluation, or a
    view built on [cache] ([Naive] ignores it) — and observe it as the
    answer's sample 0. Returns its live marginals. *)

val adopt : t -> id:int -> cache:Relational.View.cache -> Relational.View.t -> Marginals.t -> unit
(** Add a materialized answer restored from a checkpoint: no
    evaluation, no observation. *)

val remove : t -> int -> Marginals.t
(** Drop an answer, releasing its view from its cache; returns its
    final marginals. *)

val mem : t -> int -> bool
val count : t -> int

val ids : t -> int list
(** In the order the answers were added. *)

val marginals : t -> int -> Marginals.t

val view : t -> int -> Relational.View.t
(** Raises [Invalid_argument] on a [Naive] answer. *)

val fold : t -> observe:bool -> Relational.Delta.t -> unit
(** Apply [delta], already written to the database, to every view and,
    when [observe], fold every answer's tuples into its marginals
    (re-running [Naive] answers): one sample point. *)

val absorb : t -> Relational.Delta.t
(** Drain the pending delta into the views without observing, and
    return it. Called before the answer set changes mid-run, so a new
    view sees the state the others believe in; deltas compose, so the
    next sample point is unchanged. *)

val step : t -> thin:int -> Relational.Delta.t
(** Walk [thin] MH steps, drain the delta, fold it in with observation;
    returns the delta. *)

val samples : t -> int
(** Observing folds (steps included) since creation. *)

val walk_ns : t -> int
(** Nanoseconds spent in {!step}'s walks. *)

val query_ns : t -> int
(** Nanoseconds spent obtaining answers: {!add}'s bootstraps plus every
    {!fold}. *)

(** Every function taking an id raises [Invalid_argument] when it names
    no answer ({!add}, {!adopt}: when it names one). *)
