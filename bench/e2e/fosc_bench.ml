(* fosc-bench: the end-to-end benchmark (README.md in this directory).

     fosc_bench.exe --workload NAME [--seed N] [--seconds S] [--domains D]
                    [--scale full|smoke] [--json FILE] [--trace FILE]
     fosc_bench.exe --workload NAME --repeat N [--vary-seed] ...
     fosc_bench.exe --smoke

   One invocation runs one workload in its own process.  It prints every
   metric as a [name value unit] line and, with --json, writes them to
   FILE.  --trace FILE turns on the per-layer instrumentation, writes the
   spans to FILE as JSON lines, and first runs the same workload
   untraced in a child process to measure the tracing overhead.
   --repeat runs the workload N times in fresh child processes, one at
   a time, and prints each metric's median and quartiles.  --smoke is
   the self-test [dune runtest] runs. *)

type args = {
  workload : string option;
  seed : int;
  seconds : float;
  smoke_scale : bool;
  domains : int;
  json : string option;
  trace : string option;
  repeat : int;
  vary_seed : bool;
  self_test : bool;
}

let parse_args () =
  let workload = ref None and seed = ref 1 and seconds = ref 10. and scale = ref "full" in
  let domains = ref (Int.min 2 (Domain.recommended_domain_count ())) in
  let json = ref None and trace = ref None and repeat = ref 0 and vary_seed = ref false in
  let self_test = ref false in
  let specs =
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 1; 2 is the holdout)");
      ("--seconds", Arg.Set_float seconds, "S op budget: about S seconds on a 2-core box (default 10)");
      ("--scale", Arg.Symbol ([ "full"; "smoke" ], fun s -> scale := s), " input size");
      ("--domains", Arg.Set_int domains, "D domain-pool size (default min 2 nproc)");
      ("--json", Arg.String (fun s -> json := Some s), "FILE write the metrics as JSON");
      ("--trace", Arg.String (fun s -> trace := Some s), "FILE traced run: per-layer metrics, spans to FILE");
      ("--repeat", Arg.Set_int repeat, "N run N times in child processes and summarise");
      ("--vary-seed", Arg.Set vary_seed, " with --repeat, run i uses seed + i");
      ("--smoke", Arg.Set self_test, " self-test: every workload at smoke scale");
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "fosc_bench.exe [options]";
  if !domains < 1 then raise (Arg.Bad "--domains must be at least 1");
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    smoke_scale = String.equal !scale "smoke";
    domains = !domains;
    json = !json;
    trace = !trace;
    repeat = !repeat;
    vary_seed = !vary_seed;
    self_test = !self_test;
  }

let find_workload name =
  match List.find_opt (fun (n, _) -> String.equal n name) Workloads.all with
  | Some w -> w
  | None ->
      Printf.eprintf "fosc-bench: unknown workload %s (known: %s)\n" name
        (String.concat ", " (List.map fst Workloads.all));
      exit 2

(* ---------------------------------------------------- child processes *)

let child_args a ~workload ~seed =
  [
    "--workload"; workload; "--seed"; string_of_int seed; "--seconds"; Metric.number a.seconds;
    "--scale"; (if a.smoke_scale then "smoke" else "full"); "--domains"; string_of_int a.domains;
  ]

(* Runs this executable with [args], waits for it, and returns its
   stdout lines and whether it exited 0. *)
let run_child args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let rec read acc = match input_line ic with l -> read (l :: acc) | exception End_of_file -> List.rev acc in
  let lines = read [] in
  let ok = match Unix.close_process_in ic with Unix.WEXITED 0 -> true | _ -> false in
  (lines, ok)

let metrics_of lines = List.filter_map Metric.parse lines

let digest_of lines =
  List.find_map
    (fun l ->
      match String.split_on_char ' ' l with [ "result_digest"; d; _ ] -> Some d | _ -> None)
    lines

let value_of name ms = Option.map (fun m -> m.Metric.value) (List.find_opt (fun m -> String.equal m.Metric.name name) ms)

(* ------------------------------------------------------- one workload *)

(* op_p50_ms: each input stream's median op, combined across streams by
   their geometric mean.  A paper-sweep stratum repeats one sweep every
   round and a race cell is a stream of epochs.  Streams of different
   cost (race cells with an observer take twice as long) put a median
   over the pooled ops, or over the streams' medians, in the gap between
   the groups, where one slow stretch of one stream moves it; the
   geometric mean weighs every stream alike. *)
let stream_p50 op_ms op_group =
  let groups = Hashtbl.create 64 in
  Array.iteri
    (fun i g -> Hashtbl.replace groups g (op_ms.(i) :: Option.value ~default:[] (Hashtbl.find_opt groups g)))
    op_group;
  let logs = Seq.map (fun xs -> Float.log (Metric.median (Array.of_list xs))) (Hashtbl.to_seq_values groups) in
  Float.exp (Seq.fold_left ( +. ) 0. logs /. float_of_int (Hashtbl.length groups))

let ratio a b = if b > 0. then a /. b else 0.

let run_workload a name =
  let wname, runner = find_workload name in
  let untraced_ops_per_s =
    match a.trace with
    | None -> None
    | Some _ -> (
        let lines, ok = run_child (child_args a ~workload:wname ~seed:a.seed) in
        match value_of "ops_per_s" (metrics_of lines) with
        | Some v when ok -> Some v
        | _ ->
            prerr_endline "fosc-bench: the untraced reference run failed";
            exit 1)
  in
  let tracer =
    Option.map
      (fun _ ->
        let t = Span.create () in
        Span.watch_ao t;
        t)
      a.trace
  in
  let pool = Util.Pool.create ~size:a.domains () in
  let env =
    { Workloads.seed = a.seed; smoke = a.smoke_scale; seconds = a.seconds; pool; tracer }
  in
  let r = Fun.protect ~finally:(fun () -> Util.Pool.shutdown pool) (fun () -> runner env) in
  let attempted = Array.length r.Workloads.op_ms in
  let tail_label, tail = Metric.tail r.Workloads.op_ms in
  let ops_per_s = float_of_int attempted /. r.Workloads.timed_s in
  let e2e =
    [
      r.Workloads.setup_s;
      stream_p50 r.Workloads.op_ms r.Workloads.op_group;
      ops_per_s;
      float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8e-6;
      Util.Stats.mean r.Workloads.throughputs;
    ]
  in
  let unbounded =
    [ tail; float_of_int r.Workloads.failed /. float_of_int attempted; float_of_int r.Workloads.violations ]
  in
  let metrics =
    List.map2 (fun (n, u) v -> Metric.make n u v) Metric.end_to_end e2e
    @ List.map2 (fun (n, u) v -> Metric.make n u v) Metric.unbounded unbounded
  in
  let metrics =
    match untraced_ops_per_s with
    | None -> metrics
    | Some untraced ->
        let l = r.Workloads.layers in
        let get = Workloads.get l in
        Hashtbl.replace l "eval.hit_ratio" (ratio (get "eval.hits") (get "eval.lookups"));
        Hashtbl.replace l "screen.survivor_ratio" (ratio (get "screen.survivors") (get "screen.scored"));
        Hashtbl.replace l "modal.exp_hit_ratio"
          (ratio (get "modal.exp_hits") (get "modal.exp_hits" +. get "modal.exp_misses"));
        Hashtbl.replace l "pool.size" (float_of_int a.domains);
        Hashtbl.replace l "trace.overhead_frac" (1. -. (ops_per_s /. untraced));
        metrics @ List.map (fun (n, u) -> Metric.make n u (get n)) Metric.per_layer
  in
  List.iter
    (fun m ->
      if not (Float.is_finite m.Metric.value) then
        failwith (Printf.sprintf "fosc-bench: metric %s is not finite" m.Metric.name))
    metrics;
  Printf.printf "# fosc-bench %s seed %d domains %d scale %s seconds %s%s\n" wname a.seed a.domains
    (if a.smoke_scale then "smoke" else "full")
    (Metric.number a.seconds)
    (if Option.is_some a.trace then " traced" else "");
  Printf.printf "# %d ops, %d failed; op_tail_ms is the %s; op_p50_ms is over %d input stream(s)\n"
    attempted r.Workloads.failed tail_label
    (List.length (List.sort_uniq Int.compare (Array.to_list r.Workloads.op_group)));
  List.iter Metric.print metrics;
  Printf.printf "result_digest %s md5\n%!" r.Workloads.digest;
  Option.iter (fun path -> Option.iter (fun t -> Span.write t path) tracer) a.trace;
  Option.iter
    (fun path ->
      let oc = open_out path in
      Printf.fprintf oc
        "{\"workload\": %s, \"seed\": %d, \"seconds\": %s, \"scale\": %s, \"domains\": %d, \"traced\": %b, \"correct\": %b, \"attempted\": %d, \"failed\": %d, \"op_tail_percentile\": %s, \"result_digest\": %s, \"metrics\": %s}\n"
        (Metric.json_string wname) a.seed (Metric.number a.seconds)
        (Metric.json_string (if a.smoke_scale then "smoke" else "full"))
        a.domains (Option.is_some a.trace) (r.Workloads.failed = 0) attempted r.Workloads.failed
        (Metric.json_string tail_label) (Metric.json_string r.Workloads.digest) (Metric.json_metrics metrics);
      close_out oc)
    a.json;
  if r.Workloads.failed > 0 then exit 1

(* ----------------------------------------------------------- --repeat *)

let repeat a name =
  let wname, _ = find_workload name in
  let runs =
    List.init a.repeat (fun i ->
        let seed = if a.vary_seed then a.seed + i else a.seed in
        let lines, ok = run_child (child_args a ~workload:wname ~seed) in
        if not ok then begin
          Printf.eprintf "fosc-bench: run %d (seed %d) failed\n" (i + 1) seed;
          exit 1
        end;
        lines)
  in
  let all = List.map metrics_of runs in
  Printf.printf "# %s: %d runs%s\n" wname a.repeat (if a.vary_seed then ", seeds vary" else "");
  Printf.printf "%-22s %14s %14s %14s %8s %s\n" "# metric" "median" "q1" "q3" "iqr/med" "unit";
  List.iter
    (fun (m : Metric.t) ->
      let xs =
        Array.of_list (List.filter_map (fun ms -> value_of m.Metric.name ms) all)
      in
      let q1, med, q3 = Metric.quartiles xs in
      Printf.printf "%-22s %14.6g %14.6g %14.6g %8.4f %s\n" m.Metric.name med q1 q3
        (ratio (q3 -. q1) (Float.abs med)) m.Metric.unit)
    (List.hd all);
  let digests = List.sort_uniq String.compare (List.filter_map digest_of runs) in
  Printf.printf "# %d distinct result digest(s)\n" (List.length digests)

(* ------------------------------------------------------------ --smoke *)

(* Every workload at smoke scale, at 1 and 2 domains and once traced:
   every metric name prints with its unit, no op fails, and the answers
   are bit-identical across pool sizes and with tracing on.  Never
   asserts on a timing. *)
let smoke () =
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  List.iter
    (fun (w, _) ->
      let run extra = run_child ([ "--workload"; w; "--scale"; "smoke" ] @ extra) in
      let d1 = run [ "--domains"; "1" ] in
      let d2 = run [ "--domains"; "2" ] in
      let trace = Filename.temp_file "fosc-bench-smoke" ".jsonl" in
      let traced =
        Fun.protect
          ~finally:(fun () -> Sys.remove trace)
          (fun () -> run [ "--domains"; "2"; "--trace"; trace ])
      in
      let expect label (lines, ok) names =
        if not ok then fail "%s %s: exited non-zero" w label;
        let ms = metrics_of lines in
        List.iter
          (fun (n, u) ->
            match List.find_opt (fun m -> String.equal m.Metric.name n) ms with
            | None -> fail "%s %s: metric %s missing" w label n
            | Some m -> if not (String.equal m.Metric.unit u) then fail "%s %s: %s has unit %s, want %s" w label n m.Metric.unit u)
          names;
        (match value_of "failed_frac" ms with
        | Some v when Float.equal v 0. -> ()
        | _ -> fail "%s %s: failed_frac is not 0" w label);
        digest_of lines
      in
      let e2e = Metric.end_to_end @ Metric.unbounded in
      let g1 = expect "domains 1" d1 e2e in
      let g2 = expect "domains 2" d2 e2e in
      let gt = expect "traced" traced (e2e @ Metric.per_layer) in
      match (g1, g2, gt) with
      | Some a, Some b, Some c when String.equal a b && String.equal b c -> ()
      | _ -> fail "%s: result digests differ across pool sizes or tracing" w)
    Workloads.all;
  match !errors with
  | [] -> print_endline "fosc-bench smoke: ok"
  | es ->
      List.iter prerr_endline (List.rev es);
      exit 1

let () =
  let a = try parse_args () with Arg.Bad msg -> prerr_endline msg; exit 2 in
  if a.self_test then smoke ()
  else
    match a.workload with
    | None ->
        prerr_endline "fosc-bench: --workload NAME or --smoke is required";
        exit 2
    | Some name -> if a.repeat > 0 then repeat a name else run_workload a name
