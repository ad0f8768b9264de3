(* Property and concurrency tests for the persistent domain pool
   (Util.Pool): sequential equivalence (order, exceptions, edge sizes),
   nested-submission safety, shutdown behaviour and the FOSC_DOMAINS
   override.  The machine running the tests may have a single core, so
   every parallel case forces a multi-domain pool explicitly. *)

(* Force the shared pool to 4 participants regardless of the host's core
   count, before anything touches it (the lazy global reads the
   environment on first use).  This makes the global-pool [Pool.map]
   calls and the policy solvers in this executable exercise real worker
   domains. *)
let () = Unix.putenv "FOSC_DOMAINS" "4"

let pool4 = Util.Pool.create ~size:4 ()
let () = at_exit (fun () -> Util.Pool.shutdown pool4)

exception Boom of int

let square_plus_one x = (x * x) + 1

let test_map_matches_sequential () =
  let xs = List.init 57 (fun i -> i) in
  Alcotest.(check (list int))
    "same results, same order"
    (List.map square_plus_one xs)
    (Util.Pool.map ~pool:pool4 square_plus_one xs);
  let arr = Array.init 57 (fun i -> i) in
  Alcotest.(check (array int))
    "map_array agrees"
    (Array.map square_plus_one arr)
    (Util.Pool.map_array ~pool:pool4 square_plus_one arr);
  Alcotest.(check (array int))
    "init agrees"
    (Array.init 57 square_plus_one)
    (Util.Pool.init ~pool:pool4 57 square_plus_one);
  Alcotest.(check (list int))
    "chunked claiming agrees"
    (List.map square_plus_one xs)
    (Util.Pool.map ~pool:pool4 ~chunk:8 square_plus_one xs)

let test_edge_sizes () =
  Alcotest.(check (list int)) "empty input" []
    (Util.Pool.map ~pool:pool4 square_plus_one []);
  Alcotest.(check (list int)) "singleton" [ 26 ]
    (Util.Pool.map ~pool:pool4 square_plus_one [ 5 ]);
  (* Fewer items than workers: every item still runs exactly once. *)
  let wide = Util.Pool.create ~size:8 () in
  Alcotest.(check (list int)) "n < workers" [ 2; 5; 10 ]
    (Util.Pool.map ~pool:wide square_plus_one [ 1; 2; 3 ]);
  Util.Pool.shutdown wide;
  Alcotest.(check bool) "size 0 rejected" true
    (match Util.Pool.create ~size:0 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_exceptions_first_in_order () =
  (* Several tasks raise; the submitter must re-raise the first one in
     list order (what the sequential fallback would have raised), even
     though a later raiser may finish first on another domain. *)
  let f x = if x mod 3 = 0 then raise (Boom x) else x in
  Alcotest.(check bool) "first raiser in order wins" true
    (match Util.Pool.map ~pool:pool4 f (List.init 20 (fun i -> i + 1)) with
    | exception Boom 3 -> true
    | exception _ -> false
    | _ -> false);
  Alcotest.(check bool) "sequential fallback raises the same" true
    (match List.map f (List.init 20 (fun i -> i + 1)) with
    | exception Boom 3 -> true
    | exception _ -> false
    | _ -> false)

let prop_map_matches_list_map =
  QCheck.Test.make ~name:"Pool.map f xs = List.map f xs at any pool size"
    ~count:60
    QCheck.(pair (small_list small_int) (int_range 1 6))
    (fun (xs, size) ->
      let pool = Util.Pool.create ~size () in
      let got = Util.Pool.map ~pool square_plus_one xs in
      Util.Pool.shutdown pool;
      got = List.map square_plus_one xs)

let prop_map_exception_matches_list_map =
  QCheck.Test.make ~name:"Pool.map raises what List.map raises" ~count:60
    QCheck.(pair (small_list small_int) (int_range 1 6))
    (fun (xs, size) ->
      let f x = if x mod 2 = 0 then raise (Boom x) else x in
      let pool = Util.Pool.create ~size () in
      let outcome g = match g () with
        | ys -> Ok ys
        | exception Boom x -> Error x
      in
      let got = outcome (fun () -> Util.Pool.map ~pool f xs) in
      Util.Pool.shutdown pool;
      got = outcome (fun () -> List.map f xs))

let test_nested_submission_inline () =
  (* A task that maps over the same pool must neither deadlock nor fan
     out further: the inner map runs inline on the submitting task's
     domain (observable via Domain.self), so a fleet of outer tasks
     cannot oversubscribe the machine. *)
  let results =
    Util.Pool.map ~pool:pool4
      (fun outer ->
        let self = Domain.self () in
        let inner =
          Util.Pool.map ~pool:pool4
            (fun x -> (Domain.self (), x * x))
            (List.init 10 (fun i -> i))
        in
        (outer, self, inner))
      [ 1; 2; 3; 4 ]
  in
  Alcotest.(check int) "all outer tasks completed" 4 (List.length results);
  List.iter
    (fun (_, self, inner) ->
      Alcotest.(check bool) "inner tasks ran on the submitting domain" true
        (List.for_all (fun (d, _) -> d = self) inner);
      Alcotest.(check (list int)) "inner values correct"
        (List.init 10 (fun i -> i * i))
        (List.map snd inner))
    results

let test_nested_global_pool () =
  (* The experiment-sweep shape: Pool.map on the global pool over
     platforms whose policy solvers submit to the same global pool. *)
  let results =
    Util.Pool.map
      (fun cores ->
        let p = Workload.Configs.platform ~cores ~levels:2 ~t_max:60. in
        (Core.Ao.solve p).Core.Ao.throughput)
      [ 2; 3; 2; 3 ]
  in
  Alcotest.(check int) "all results back" 4 (List.length results);
  Alcotest.(check bool) "repeat configs agree" true
    (List.nth results 0 = List.nth results 2
    && List.nth results 1 = List.nth results 3)

let test_shutdown_degrades_to_sequential () =
  let pool = Util.Pool.create ~size:4 () in
  let xs = List.init 12 (fun i -> i) in
  Alcotest.(check (list int)) "before shutdown"
    (List.map square_plus_one xs)
    (Util.Pool.map ~pool square_plus_one xs);
  Util.Pool.shutdown pool;
  Alcotest.(check (list int)) "after shutdown (sequential on submitter)"
    (List.map square_plus_one xs)
    (Util.Pool.map ~pool square_plus_one xs)

let test_env_override () =
  Alcotest.(check int) "FOSC_DOMAINS=4 honoured" 4 (Util.Pool.default_size ());
  Unix.putenv "FOSC_DOMAINS" "2";
  Alcotest.(check int) "FOSC_DOMAINS=2 honoured" 2 (Util.Pool.default_size ());
  Unix.putenv "FOSC_DOMAINS" "0";
  Alcotest.(check int) "clamped to >= 1" 1 (Util.Pool.default_size ());
  Unix.putenv "FOSC_DOMAINS" "not-a-number";
  Alcotest.(check bool) "garbage falls back to machine default" true
    (Util.Pool.default_size () >= 1 && Util.Pool.default_size () <= 8);
  Unix.putenv "FOSC_DOMAINS" "4";
  Alcotest.(check int) "shared pool was pinned at creation" 4
    (Util.Pool.size (Util.Pool.get ()))

(* Policy determinism across pool sizes: the parallel searches must
   return bit-identical results to their sequential paths (the CI matrix
   re-runs the whole suite under FOSC_DOMAINS=1 for the same reason;
   this covers it inside a single process). *)
let test_policies_match_sequential () =
  let p = Workload.Configs.platform ~cores:3 ~levels:3 ~t_max:60. in
  let seq = Core.Ao.solve ~par:false p in
  let par = Core.Ao.solve p in
  Alcotest.(check int) "AO picks the same m" seq.Core.Ao.m par.Core.Ao.m;
  Alcotest.(check (float 0.)) "AO peak identical" seq.Core.Ao.peak par.Core.Ao.peak;
  Alcotest.(check (float 0.)) "AO throughput identical" seq.Core.Ao.throughput
    par.Core.Ao.throughput;
  Alcotest.(check int) "AO same adjustment trajectory" seq.Core.Ao.adjustment_steps
    par.Core.Ao.adjustment_steps;
  let demands = [| 1.0; 0.9; 0.8 |] in
  let dseq = Core.Demand.solve ~par:false p ~demands in
  let dpar = Core.Demand.solve p ~demands in
  Alcotest.(check int) "Demand picks the same m" dseq.Core.Demand.m dpar.Core.Demand.m;
  Alcotest.(check (float 0.)) "Demand peak identical" dseq.Core.Demand.peak
    dpar.Core.Demand.peak;
  let pseq = Core.Pco.solve ~par:false ~offsets_per_core:4 p in
  let ppar = Core.Pco.solve ~offsets_per_core:4 p in
  Alcotest.(check (float 0.)) "PCO peak identical" pseq.Core.Pco.peak
    ppar.Core.Pco.peak;
  Alcotest.(check (float 0.)) "PCO throughput identical" pseq.Core.Pco.throughput
    ppar.Core.Pco.throughput

let () =
  Alcotest.run "pool"
    [
      ( "map",
        [
          Alcotest.test_case "matches sequential" `Quick test_map_matches_sequential;
          Alcotest.test_case "edge sizes" `Quick test_edge_sizes;
          Alcotest.test_case "exceptions in order" `Quick test_exceptions_first_in_order;
          QCheck_alcotest.to_alcotest prop_map_matches_list_map;
          QCheck_alcotest.to_alcotest prop_map_exception_matches_list_map;
        ] );
      ( "nesting",
        [
          Alcotest.test_case "nested submission runs inline" `Quick
            test_nested_submission_inline;
          Alcotest.test_case "nested policies on global pool" `Quick
            test_nested_global_pool;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "shutdown degrades to sequential" `Quick
            test_shutdown_degrades_to_sequential;
          Alcotest.test_case "FOSC_DOMAINS override" `Quick test_env_override;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "parallel policies = sequential" `Quick
            test_policies_match_sequential;
        ] );
    ]
