(* Named metric values, the order statistics the benchmark reports, and
   the two forms every run prints: one [name value unit] line per
   metric on stdout and a JSON object in the [--json] file. *)

type t = { name : string; value : float; unit : string }

let make name unit value = { name; value; unit }

(* The metric names every run prints, with their units, in print order.
   [end_to_end] is measured with tracing off; [per_layer] comes only
   from a traced run.  BENCHMARK.json lists the same names. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("op_p50_ms", "ms");
    ("ops_per_s", "1/s");
    ("heap_peak_mb", "MB");
    ("solution_throughput", "speed");
  ]

(* Printed by every run but kept out of BENCHMARK.json.  op_tail_ms
   exists as a percentile only from 100 ops, and two workloads run
   fewer: their maximum of a few seconds-long solves moves with every
   slow stretch of a shared machine.  failed_frac is 0 on a healthy run
   and reaches run.py's result line as [failed]; violations is 0 on every
   workload but the race, which also reports it per layer.  A bound
   relative to a zero median would mean nothing. *)
let unbounded = [ ("op_tail_ms", "ms"); ("failed_frac", "ratio"); ("violations", "count") ]

let controllers = [ "threshold"; "pid"; "integral"; "tsp" ]
let policies = [ "lns"; "exs"; "ao"; "pco"; "demand" ]

let per_layer =
  List.concat_map
    (fun p -> [ ("solver." ^ p ^ ".busy_s", "s"); ("solver." ^ p ^ ".calls", "count") ])
    policies
  @ [
      ("ao.msweep_s", "s");
      ("ao.adjust_s", "s");
      ("ao.finish_s", "s");
      ("ao.adjust_steps", "count");
      ("eval.lookups", "count");
      ("eval.hit_ratio", "ratio");
      ("eval.evictions", "count");
      ("screen.scored", "count");
      ("screen.survivors", "count");
      ("screen.survivor_ratio", "ratio");
      ("tpt.delta_cached", "count");
      ("tpt.delta_scored", "count");
      ("tpt.delta_exact", "count");
      ("sparse_response.builds", "count");
      ("sparse_response.superpose_evals", "count");
      ("sparse_response.stable_solves", "count");
      ("sparse_response.base_solves", "count");
      ("sparse_response.delta_evals", "count");
      ("modal.superpose_evals", "count");
      ("modal.exp_hit_ratio", "ratio");
      ("modal.delta_evals", "count");
      ("unit.exact_us", "us");
      ("unit.memo_us", "us");
      ("unit.rom_us", "us");
      ("unit.delta_base_us", "us");
      ("unit.delta_us", "us");
      ("unit.end_temps_us", "us");
      ("unit.step_us", "us");
      ("attr.exact_s", "s");
      ("attr.memo_s", "s");
      ("attr.rom_s", "s");
      ("attr.delta_s", "s");
      ("attr.residual_s", "s");
      ("setup.model_s", "s");
      ("setup.engine_s", "s");
      ("setup.rom_s", "s");
      ("pool.size", "count");
      ("pool.par_speedup", "ratio");
    ]
  @ List.concat_map
      (fun c ->
        [
          ("controller." ^ c ^ ".decide_us_p50", "us");
          ("controller." ^ c ^ ".init_s", "s");
        ])
      controllers
  @ [
      ("loop.plant_us_p50", "us");
      ("loop.epochs", "count");
      ("loop.switches", "count");
      ("loop.violations", "count");
      ("gc.minor_mb", "MB");
      ("gc.major_collections", "count");
      ("gc.retained_kb_per_platform", "KB");
      ("trace.overhead_frac", "ratio");
    ]

(* ------------------------------------------------------ statistics *)

let median xs = Util.Stats.percentile xs 50.

(* The highest percentile with at least ten samples beyond it.  Below
   100 samples no percentile qualifies; the maximum is reported instead
   so the metric always has a value, and the label says so. *)
let tail xs =
  let n = Array.length xs in
  match List.find_opt (fun (_, need) -> n >= need) [ (99.9, 10_000); (99., 1_000); (90., 100) ] with
  | Some (p, _) -> (Printf.sprintf "p%g" p, Util.Stats.percentile xs p)
  | None -> ("max", Array.fold_left Float.max neg_infinity xs)

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the default "exclusive" method), so spreads printed by [--repeat]
   match the ones a Python script computes from the same values. *)
let quartiles xs =
  let d = Array.copy xs in
  Array.sort Float.compare d;
  let ld = Array.length d in
  if ld < 2 then (d.(0), d.(0), d.(0))
  else begin
    let m = ld + 1 in
    let q i =
      let j = Int.max 1 (Int.min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)
  end

(* ---------------------------------------------------------- output *)

(* Seventeen significant digits round-trip every double: a printed value
   is the measured one, not a rounding of it. *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print m = Printf.printf "%s %s %s\n" m.name (number m.value) m.unit

(* Inverse of [print] for the [--repeat] and [--smoke] parents reading
   their children's stdout; comment lines and the digest line are not
   metrics. *)
let parse line =
  match String.split_on_char ' ' (String.trim line) with
  | [ name; value; unit ] -> (
      match float_of_string_opt value with
      | Some value -> Some { name; value; unit }
      | None -> None)
  | _ -> None

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_metrics ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
             (number m.value) (json_string m.unit))
         ms)
  ^ "}"
