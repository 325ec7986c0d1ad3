(* Percentiles, spans and the per-layer cost ledger.

   Spans are recorded by the benchmark's own code around its calls into
   the program's public functions; nothing here registers an
   Obs.Metrics or Obs.Trace name. Spans are flat: each lies directly in
   a traced block and none overlaps another. A span carries the layer
   its time is charged to and its "parts": durations measured inside it
   that have no interval of their own (a program counter's delta across
   the span, or a sum of sub-microsecond spans). A span's self time is
   its duration minus its parts; the block wall time outside every span
   is unattributed. So the self times, the parts and the unattributed
   time partition the blocks' wall time. *)

(* ---------- percentiles ---------- *)

(* Percentiles as exact fractions, so the rank arithmetic is integer. *)
type quantile = { num : int; den : int; label : string }

let p50 = { num = 50; den = 100; label = "p50" }
let p90 = { num = 90; den = 100; label = "p90" }
let p99 = { num = 99; den = 100; label = "p99" }
let p999 = { num = 999; den = 1000; label = "p99.9" }
let ladder = [ p50; p90; p99; p999 ]

(* Nearest-rank (1-based) position of quantile [q] among [n] samples. *)
let rank ~n q = ((n * q.num) + q.den - 1) / q.den

(* Samples strictly above the quantile's rank. *)
let beyond ~n q = n - rank ~n q

(* The highest percentile of the ladder with at least ten samples beyond
   it — the tail figure a run of [n] samples can support. *)
let highest_reportable ~n =
  List.fold_left (fun acc q -> if beyond ~n q >= 10 then Some q else acc) None ladder

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Ledger.percentile: no samples";
  sorted.(max 0 (rank ~n q - 1))

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort Int.compare a;
  a

(* ---------- spans ---------- *)

type span = {
  layer : string;
  start_ns : int;
  mutable stop_ns : int;
  mutable parts : (string * int) list;  (* (layer, ns) measured inside *)
}

type t = {
  mutable spans : span list;  (* most recent first *)
  mutable wall_ns : int;  (* summed over the closed blocks *)
}

let create () = { spans = []; wall_ns = 0 }

(* Add a closed block's wall time. *)
let add_wall t ns = t.wall_ns <- t.wall_ns + ns

let wall_ns t = t.wall_ns

let record t ~layer ~start_ns ~stop_ns ~parts =
  let s = { layer; start_ns; stop_ns; parts } in
  t.spans <- s :: t.spans;
  s

let open_span t ~layer =
  record t ~layer ~start_ns:(Obs.Timer.now_ns ()) ~stop_ns:(-1) ~parts:[]

let close_span s = s.stop_ns <- Obs.Timer.now_ns ()

(* Attach the parts measured inside a closed span. *)
let set_parts s parts = s.parts <- parts

let duration s = s.stop_ns - s.start_ns

let self_ns s = duration s - List.fold_left (fun acc (_, ns) -> acc + ns) 0 s.parts

(* Per-layer totals: every span's self time charged to its layer, every
   part to the part's layer, and the wall time outside every span to
   "unattributed". The totals sum to the blocks' wall time. *)
let layer_totals t =
  let totals = Hashtbl.create 16 in
  let charge layer ns =
    Hashtbl.replace totals layer (ns + Option.value ~default:0 (Hashtbl.find_opt totals layer))
  in
  let spanned =
    List.fold_left
      (fun acc s ->
        charge s.layer (self_ns s);
        List.iter (fun (layer, ns) -> charge layer ns) s.parts;
        acc + duration s)
      0 t.spans
  in
  charge "unattributed" (t.wall_ns - spanned);
  Hashtbl.fold (fun layer ns acc -> (layer, ns) :: acc) totals []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* (start, duration) of every span charged to [layer], in recording
   order. *)
let durations t ~layer =
  List.fold_left
    (fun acc s -> if String.equal s.layer layer then (s.start_ns, duration s) :: acc else acc)
    [] t.spans
