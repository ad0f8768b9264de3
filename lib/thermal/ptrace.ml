type t = { names : string array; samples : float array array }

exception Parse_error of int * string

let error line fmt = Printf.ksprintf (fun msg -> raise (Parse_error (line, msg))) fmt

let fields line =
  String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) line)
  |> List.filter (fun f -> f <> "")

let of_string text =
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> (i + 1, l))
    |> List.filter (fun (_, l) -> String.trim l <> "")
  in
  match lines with
  | [] -> raise (Parse_error (0, "empty trace"))
  | (header_line, header) :: body ->
      let names = Array.of_list (fields header) in
      if Array.length names = 0 then error header_line "empty header";
      let parse_row (lineno, line) =
        let cells = fields line in
        if List.length cells <> Array.length names then
          error lineno "row has %d cells, header has %d columns" (List.length cells)
            (Array.length names);
        Array.of_list
          (List.map
             (fun c ->
               match float_of_string_opt c with
               | Some v -> v
               | None -> error lineno "not a number: %S" c)
             cells)
      in
      if body = [] then error header_line "trace has a header but no samples";
      { names; samples = Array.of_list (List.map parse_row body) }

let of_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (In_channel.input_all ic))

let to_string t =
  let buffer = Buffer.create 1024 in
  Buffer.add_string buffer (String.concat "\t" (Array.to_list t.names));
  Buffer.add_char buffer '\n';
  Array.iter
    (fun row ->
      Buffer.add_string buffer
        (String.concat "\t" (Array.to_list (Array.map (Printf.sprintf "%.6g") row)));
      Buffer.add_char buffer '\n')
    t.samples;
  Buffer.contents buffer

let to_file path t =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string t))

let columns_for_model t model_names =
  let index name = Array.find_index (fun n -> n = name) t.names in
  let missing = ref [] in
  let map =
    Array.map
      (fun name ->
        match index name with
        | Some i -> i
        | None ->
            missing := name :: !missing;
            -1)
      model_names
  in
  if !missing <> [] then
    failwith
      (Printf.sprintf "Ptrace.columns_for_model: trace lacks unit(s): %s"
         (String.concat ", " (List.rev !missing)));
  map

let replay model t ~interval ~column_map =
  if interval <= 0. then invalid_arg "Ptrace.replay: non-positive interval";
  if Array.length column_map <> Model.n_cores model then
    invalid_arg "Ptrace.replay: column map arity differs from model cores";
  let eng = Modal.make model in
  let z = ref (Modal.ambient_state eng) in
  let out =
    Array.make
      (Array.length t.samples + 1)
      { Trace.time = 0.; core_temps = Modal.core_temps eng !z }
  in
  Array.iteri
    (fun k row ->
      let psi = Array.map (fun col -> row.(col)) column_map in
      z := Modal.step eng ~dt:interval ~z:!z ~psi;
      out.(k + 1) <-
        {
          Trace.time = float_of_int (k + 1) *. interval;
          core_temps = Modal.core_temps eng !z;
        })
    t.samples;
  out
