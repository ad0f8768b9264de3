type segment = { duration : float; voltage : float }
type t = { period : float; cores : segment list array }

(* Positive range tests throughout, so a NaN or infinite input is
   rejected instead of reaching the thermal engines. *)
let validate s =
  if not (Float.is_finite s.period && s.period > 0.) then
    invalid_arg "Schedule: period must be finite and positive";
  if Array.length s.cores = 0 then invalid_arg "Schedule: no cores";
  Array.iteri
    (fun i segments ->
      if List.is_empty segments then
        invalid_arg (Printf.sprintf "Schedule: core %d has no segments" i);
      List.iter
        (fun seg ->
          if not (Float.is_finite seg.duration && seg.duration > 0.) then
            invalid_arg
              (Printf.sprintf "Schedule: core %d has a non-finite or non-positive duration" i);
          if not (Float.is_finite seg.voltage && seg.voltage >= 0.) then
            invalid_arg
              (Printf.sprintf "Schedule: core %d has a negative or non-finite voltage" i))
        segments;
      let total = List.fold_left (fun acc seg -> acc +. seg.duration) 0. segments in
      if Float.abs (total -. s.period) > 1e-9 *. Float.max 1. s.period then
        invalid_arg
          (Printf.sprintf "Schedule: core %d covers %.12g s, period is %.12g s" i total
             s.period))
    s.cores

let make ~period cores =
  let s = { period; cores = Array.map (fun l -> l) cores } in
  validate s;
  s

let uniform ~period voltages =
  make ~period (Array.map (fun v -> [ { duration = period; voltage = v } ]) voltages)

let two_mode ~period ~low ~high ~high_ratio =
  let n = Array.length low in
  if Array.length high <> n || Array.length high_ratio <> n then
    invalid_arg "Schedule.two_mode: array length mismatch";
  let core i =
    let r = high_ratio.(i) in
    if not (-1e-12 <= r && r <= 1. +. 1e-12) then
      invalid_arg (Printf.sprintf "Schedule.two_mode: ratio %.6g for core %d not in [0,1]" r i);
    let lh = Float.max 0. (Float.min period (r *. period)) in
    let ll = period -. lh in
    if lh <= 1e-12 then [ { duration = period; voltage = low.(i) } ]
    else if ll <= 1e-12 then [ { duration = period; voltage = high.(i) } ]
    else
      [ { duration = ll; voltage = low.(i) }; { duration = lh; voltage = high.(i) } ]
  in
  make ~period (Array.init n core)

let n_cores s = Array.length s.cores
let period s = s.period
let core_segments s i = s.cores.(i)

let voltage_at s i t =
  let t = Float.rem (Float.rem t s.period +. s.period) s.period in
  let rec find at = function
    | [] -> (* numerical spill past the last segment *) (List.hd (List.rev s.cores.(i))).voltage
    | seg :: rest -> if t < at +. seg.duration then seg.voltage else find (at +. seg.duration) rest
  in
  find 0. s.cores.(i)

let state_intervals s =
  (* Collect every core's cumulative change points, then walk the merged
     time line reading each core's voltage inside each span. *)
  let points = ref [ 0.; s.period ] in
  Array.iter
    (fun segments ->
      let at = ref 0. in
      List.iter
        (fun seg ->
          at := !at +. seg.duration;
          points := !at :: !points)
        segments)
    s.cores;
  let sorted = List.sort_uniq Float.compare !points in
  let coalesced =
    List.fold_left
      (fun acc t ->
        match acc with
        | prev :: _ when t -. prev < 1e-12 -> acc
        | _ -> t :: acc)
      [] sorted
    |> List.rev
  in
  let rec spans = function
    | t0 :: (t1 :: _ as rest) ->
        let mid = (t0 +. t1) /. 2. in
        let voltages = Array.init (n_cores s) (fun i -> voltage_at s i mid) in
        (t1 -. t0, voltages) :: spans rest
    | [ _ ] | [] -> []
  in
  spans coalesced

let shift s i offset =
  let offset = Float.rem (Float.rem offset s.period +. s.period) s.period in
  if offset < 1e-12 || s.period -. offset < 1e-12 then s
  else begin
    (* Split core i's cyclic sequence at [offset] and rotate. *)
    let rec split at before = function
      | [] -> (List.rev before, [])
      | seg :: rest ->
          if at +. seg.duration <= offset +. 1e-12 then
            split (at +. seg.duration) (seg :: before) rest
          else if offset -. at < 1e-12 then (List.rev before, seg :: rest)
          else
            let first = { seg with duration = offset -. at } in
            let second = { seg with duration = seg.duration -. (offset -. at) } in
            (List.rev (first :: before), second :: rest)
    in
    let before, after = split 0. [] s.cores.(i) in
    let rotated = after @ before in
    (* Merge the junction if it reunites two pieces of one segment. *)
    let rec merge = function
      | a :: b :: rest when Float.abs (a.voltage -. b.voltage) < 1e-12 ->
          merge ({ duration = a.duration +. b.duration; voltage = a.voltage } :: rest)
      | a :: rest -> a :: merge rest
      | [] -> []
    in
    let cores = Array.copy s.cores in
    cores.(i) <- merge rotated;
    make ~period:s.period cores
  end

let scale_durations s factor =
  if factor <= 0. then invalid_arg "Schedule.scale_durations: non-positive factor";
  make ~period:(s.period *. factor)
    (Array.map
       (List.map (fun seg -> { seg with duration = seg.duration *. factor }))
       s.cores)

let transitions s i =
  match s.cores.(i) with
  | [] | [ _ ] -> 0
  | first :: _ as segments ->
      let rec count prev = function
        | [] ->
            (* Wrap-around boundary. *)
            if Float.abs (prev.voltage -. first.voltage) > 1e-12 then 1 else 0
        | seg :: rest ->
            (if Float.abs (prev.voltage -. seg.voltage) > 1e-12 then 1 else 0)
            + count seg rest
      in
      count first (List.tl segments)

let equal ?(tol = 1e-9) a b =
  Float.abs (a.period -. b.period) <= tol
  && Array.length a.cores = Array.length b.cores
  && Array.for_all2
       (fun ca cb ->
         List.length ca = List.length cb
         && List.for_all2
              (fun x y ->
                Float.abs (x.duration -. y.duration) <= tol
                && Float.abs (x.voltage -. y.voltage) <= tol)
              ca cb)
       a.cores b.cores

let pp fmt s =
  Array.iteri
    (fun i segments ->
      Format.fprintf fmt "core %d:" i;
      List.iter
        (fun seg ->
          Format.fprintf fmt " %.4gms@%.2fV |" (seg.duration *. 1e3) seg.voltage)
        segments;
      Format.pp_print_newline fmt ())
    s.cores

let to_string s =
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer (Printf.sprintf "period %.17g\n" s.period);
  Array.iteri
    (fun i segments ->
      Buffer.add_string buffer (Printf.sprintf "core %d:" i);
      List.iter
        (fun seg ->
          Buffer.add_string buffer
            (Printf.sprintf " %.17g@%.17g" seg.duration seg.voltage))
        segments;
      Buffer.add_char buffer '\n')
    s.cores;
  Buffer.contents buffer

let of_string text =
  let fail lineno fmt =
    Printf.ksprintf (fun m -> failwith (Printf.sprintf "Schedule.of_string: line %d: %s" lineno m)) fmt
  in
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter (fun (_, l) -> l <> "")
  in
  match lines with
  | [] -> failwith "Schedule.of_string: empty input"
  | (lineno, first) :: rest ->
      let period =
        match String.split_on_char ' ' first with
        | [ "period"; v ] -> (
            match float_of_string_opt v with
            | Some p -> p
            | None -> fail lineno "bad period %S" v)
        | _ -> fail lineno "expected 'period <seconds>', got %S" first
      in
      let parse_core (lineno, line) =
        match String.index_opt line ':' with
        | None -> fail lineno "expected 'core <i>: ...'"
        | Some colon ->
            let body = String.sub line (colon + 1) (String.length line - colon - 1) in
            let segs =
              String.split_on_char ' ' body
              |> List.filter (fun f -> f <> "")
              |> List.map (fun field ->
                     match String.split_on_char '@' field with
                     | [ d; v ] -> (
                         match (float_of_string_opt d, float_of_string_opt v) with
                         | Some duration, Some voltage -> { duration; voltage }
                         | _ -> fail lineno "bad segment %S" field)
                     | _ -> fail lineno "bad segment %S (expected dur@volt)" field)
            in
            if List.is_empty segs then fail lineno "core has no segments";
            segs
      in
      make ~period (Array.of_list (List.map parse_core rest))
