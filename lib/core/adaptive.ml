type report = {
  marginals : Marginals.t;
  final_thin : int;
  thin_trajectory : (int * int) list;
  walk_s : float;
  query_s : float;
}

let evaluate ?(strategy = Evaluator.Materialized) ?(k_min = 50) ?(k_max = 50_000)
    ?(target_overhead = 0.25) ?(initial_thin = 1_000) pdb ~query ~samples =
  let s = Sampler.create pdb in
  let marginals = Sampler.add s ~id:0 ~cache:(Relational.View.cache_create ()) strategy query in
  let thin = ref initial_thin in
  let trajectory = ref [ (0, !thin) ] in
  (* Window start: the sampler's walk/query totals and the MH steps taken
     since the last re-tune. *)
  let walk0 = ref (Sampler.walk_ns s) and query0 = ref (Sampler.query_ns s) in
  let window_steps = ref 0 in
  for i = 1 to samples do
    ignore (Sampler.step s ~thin:!thin : Relational.Delta.t);
    window_steps := !window_steps + !thin;
    if i mod 10 = 0 && !window_steps > 0 then begin
      (* Per-step walk cost and per-sample query cost over the window. *)
      let walk_per_step =
        float_of_int (Sampler.walk_ns s - !walk0) /. float_of_int !window_steps
      in
      let query_per_sample = float_of_int (Sampler.query_ns s - !query0) /. 10. in
      if walk_per_step > 0. then begin
        (* Choose k so query cost ≈ target_overhead × (k · walk cost):
           k* = query / (target · walk). Damp the update geometrically. *)
        let ideal = query_per_sample /. (target_overhead *. walk_per_step) in
        let damped =
          int_of_float (sqrt (float_of_int !thin *. max 1. ideal))
        in
        let next = max k_min (min k_max damped) in
        if next <> !thin then begin
          thin := next;
          trajectory := (i, next) :: !trajectory
        end
      end;
      walk0 := Sampler.walk_ns s;
      query0 := Sampler.query_ns s;
      window_steps := 0
    end
  done;
  { marginals; final_thin = !thin; thin_trajectory = List.rev !trajectory;
    walk_s = Obs.Timer.seconds (Sampler.walk_ns s);
    query_s = Obs.Timer.seconds (Sampler.query_ns s) }
