let counter_value reg name =
  match Metrics.find reg name with Some (Metrics.Counter n) -> n | _ -> 0

let ratio num den = if den = 0 then None else Some (float_of_int num /. float_of_int den)

let derived reg =
  let c = counter_value reg in
  let proposals = c "mcmc.proposals" and accepts = c "mcmc.accepts" in
  let fq_ns = c "eval.full_query_ns" and fq_n = c "eval.full_query_count" in
  let m_ns = c "eval.maintain_ns" and m_n = c "eval.maintain_count" in
  let delta_rows = c "eval.delta_rows" in
  (* One eval.delta_size observation per folded batch: the average is per
     batch, however many views each batch was folded into. *)
  let batches =
    match Metrics.find reg "eval.delta_size" with
    | Some (Metrics.Histogram { count; _ }) -> count
    | _ -> 0
  in
  let avg_full = ratio fq_ns fq_n and avg_maint = ratio m_ns m_n in
  List.filter_map
    (fun (name, v) -> Option.map (fun v -> (name, v)) v)
    [ ("mcmc.acceptance_rate", ratio accepts proposals);
      ("eval.avg_full_query_ns", avg_full);
      ("eval.avg_maintain_ns", avg_maint);
      ( "eval.materialized_speedup",
        match (avg_full, avg_maint) with
        | Some f, Some m when m > 0. -> Some (f /. m)
        | _ -> None );
      ("eval.avg_delta_rows", ratio delta_rows batches) ]

let hist_json (h : Metrics.value) =
  match h with
  | Metrics.Histogram { count; sum; max; buckets } ->
    let mean = if count = 0 then 0. else float_of_int sum /. float_of_int count in
    (* Re-derive quantiles from the bucket list so a snapshot value is
       self-contained. *)
    let quant q =
      if count = 0 then 0
      else begin
        let rank = Stdlib.max 1 (int_of_float (ceil (q *. float_of_int count))) in
        let rec go seen = function
          | [] -> max
          | (_, hi, c) :: rest -> if seen + c >= rank then hi else go (seen + c) rest
        in
        go 0 buckets
      end
    in
    Jsonx.obj
      [ ("count", Jsonx.int count);
        ("sum", Jsonx.int sum);
        ("max", Jsonx.int max);
        ("mean", Jsonx.float mean);
        ("p50", Jsonx.int (quant 0.5));
        ("p95", Jsonx.int (quant 0.95));
        ("p99", Jsonx.int (quant 0.99));
        ( "buckets",
          Jsonx.arr
            (List.map
               (fun (lo, hi, c) ->
                 Jsonx.obj
                   [ ("lo", Jsonx.int (Stdlib.max 0 lo));
                     ("hi", Jsonx.int hi);
                     ("count", Jsonx.int c) ])
               buckets) ) ]
  | _ -> invalid_arg "hist_json"

let to_json ?(meta = []) reg =
  let metrics =
    List.map
      (fun (name, v) ->
        ( name,
          match v with
          | Metrics.Counter n -> Jsonx.int n
          | Metrics.Gauge x -> Jsonx.float x
          | Metrics.Histogram _ -> hist_json v ))
      (Metrics.snapshot reg)
  in
  Jsonx.obj
    [ ("meta", Jsonx.obj (List.map (fun (k, v) -> (k, Jsonx.str v)) meta));
      ("metrics", Jsonx.obj metrics);
      ("derived", Jsonx.obj (List.map (fun (k, v) -> (k, Jsonx.float v)) (derived reg))) ]

let write_file ?meta ~path reg =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_json ?meta reg);
      output_char oc '\n')
