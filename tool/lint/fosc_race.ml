(* fosc-race: typedtree domain-safety analysis (DESIGN.md §15).

   Usage: fosc_race [--sarif FILE] PATH...

   Each PATH is a .cmt file or a directory walked recursively for .cmt
   files (dune keeps them under lib/<dir>/.<lib>.objs/byte/).  The tool
   loads every implementation unit, builds the cross-file callgraph and
   the pool-reachable set, and runs rules R6–R9.

   Findings print in the same "path:line:col: [RULE] msg" format as
   fosc_lint so the test harness and editors parse both passes alike;
   --sarif additionally writes a SARIF 2.1.0 log for code-scanning
   upload.

   Exit status: 0 clean, 1 findings, 2 usage error. *)

let usage = "usage: fosc_race [--sarif FILE] PATH..."

let sarif_out = ref ""
let roots = ref []

let () =
  Arg.parse
    [ ("--sarif", Arg.Set_string sarif_out, "FILE  write a SARIF 2.1.0 log") ]
    (fun p -> roots := p :: !roots)
    usage

(* ------------------------------------------------------------- SARIF *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rule_descriptions =
  [
    ("R6", "pool-reachable code must not touch unguarded module-level mutable state");
    ("R7", "Mutex.lock must be paired with an unlock on every path");
    ("R8", "no Lazy.force of a shared lazy in a parallel region");
    ("R9", "per-domain scratch (Domain.DLS, Util.Per_domain) must not escape its domain");
  ]

let write_sarif file (findings : Race_rules.finding list) =
  let oc = open_out file in
  let rules =
    rule_descriptions
    |> List.map (fun (id, desc) ->
           Printf.sprintf
             "{\"id\":\"%s\",\"shortDescription\":{\"text\":\"%s\"}}" id
             (json_escape desc))
    |> String.concat ","
  in
  let results =
    findings
    |> List.map (fun (f : Race_rules.finding) ->
           Printf.sprintf
             "{\"ruleId\":\"%s\",\"level\":\"error\",\"message\":{\"text\":\"%s\"},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":\"%s\"},\"region\":{\"startLine\":%d,\"startColumn\":%d}}}]}"
             (json_escape f.rule) (json_escape f.msg) (json_escape f.path)
             f.line (f.col + 1))
    |> String.concat ","
  in
  Printf.fprintf oc
    "{\"$schema\":\"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{\"name\":\"fosc-race\",\"informationUri\":\"https://example.invalid/fosc\",\"rules\":[%s]}},\"results\":[%s]}]}\n"
    rules results;
  close_out oc

(* -------------------------------------------------------------- main *)

let () =
  let roots = List.rev !roots in
  if roots = [] then begin
    prerr_endline usage;
    exit 2
  end;
  List.iter
    (fun r ->
      if not (Sys.file_exists r) then begin
        prerr_endline ("fosc_race: no such path: " ^ r);
        exit 2
      end)
    roots;
  let units = Cmt_load.load roots in
  if units = [] then begin
    prerr_endline
      "fosc_race: no .cmt implementation units found (build the library \
       first: cmts live under _build/.../.<lib>.objs/byte/)";
    exit 2
  end;
  let cg = Callgraph.build units in
  if Sys.getenv_opt "FOSC_RACE_DEBUG" <> None then
    List.iter
      (fun k ->
        let b = Hashtbl.find cg.Callgraph.bindings k in
        Printf.eprintf "# %s mut=%s pool=%b par=%b refs=[%s]\n" k
          (match b.Callgraph.mutability with
          | Callgraph.Not_mutable -> "-"
          | Callgraph.Guarded -> "guarded"
          | Callgraph.Unguarded -> "UNGUARDED")
          b.Callgraph.has_pool_site
          (Callgraph.SSet.mem k cg.Callgraph.parallel)
          (String.concat "," (Callgraph.SSet.elements b.Callgraph.refs)))
      cg.Callgraph.order;
  let findings = Race_rules.check cg in
  List.iter
    (fun (f : Race_rules.finding) ->
      Printf.printf "%s:%d:%d: [%s] %s\n" f.path f.line f.col f.rule f.msg)
    findings;
  if !sarif_out <> "" then write_sarif !sarif_out findings;
  let n = List.length findings in
  let npar = Callgraph.SSet.cardinal cg.parallel in
  if n = 0 then begin
    Printf.printf "fosc-race: %d units, %d pool-reachable bindings, clean\n"
      (List.length units) npar;
    exit 0
  end
  else begin
    Printf.printf
      "fosc-race: %d finding%s across %d units (%d pool-reachable bindings)\n"
      n
      (if n = 1 then "" else "s")
      (List.length units) npar;
    exit 1
  end
