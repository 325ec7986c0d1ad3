(* pdb_lint: allow-file R11 — the exact forward–backward truth sampler
   writes whole label paths itself and has no Pdb chain to step; it drains
   the write-through delta only to discard it. *)

let evaluate ?on_sample ~rng ~crf ~query ~samples () =
  if Crf.has_skip_edges crf then
    invalid_arg "Generative_eval: the generative sampler requires a linear chain (skip_edges=false)";
  let world = Crf.world crf in
  let db = Core.World.db world in
  let marginals = Core.Marginals.create () in
  (* The chain posterior depends only on strings and weights, never on the
     current labels, so the per-document models are built once. *)
  let models =
    Array.init (Crf.n_docs crf) (fun doc -> (doc, Chain_inference.model_of_doc crf ~doc))
  in
  let started = Obs.Timer.start () in
  for i = 1 to samples do
    Array.iter
      (fun (doc, model) ->
        let first, _ = Crf.doc_token_range crf doc in
        let path = Factorgraph.Chain_fb.sample model rng in
        Array.iteri (fun k l -> Crf.set_label crf ~pos:(first + k) (Labels.of_index l)) path)
      models;
    ignore (Core.World.drain_delta world : Relational.Delta.t);
    Core.Marginals.observe marginals (Relational.Eval.eval db query).Relational.Eval.bag;
    match on_sample with
    | None -> ()
    | Some f -> f i (Obs.Timer.seconds (Obs.Timer.elapsed_ns started)) marginals
  done;
  marginals
