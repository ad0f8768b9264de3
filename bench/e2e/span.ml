(* The traced run's span recorder.  Spans are taken outside-in, from the
   benchmark's own calls into lib/ (a solve, a controller decision, an
   engine build, a unit-cost probe), kept in memory, and written as JSON
   lines when the workload ends.  Every span carries its parent and the
   op it belongs to, so a consumer can rebuild per-op trees and self
   times.

   AO's stage boundaries are the one thing observed from inside a solve:
   [watch_ao] installs a Logs reporter for the existing "fosc.ao" debug
   source and timestamps its two messages (end of the m sweep, end of
   the TPT adjustment).  Nothing in lib/ changes. *)

let now = Unix.gettimeofday

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** -1 for a root span. *)
  op : int;  (** -1 outside the timed phase. *)
}

type t = {
  origin : float;
  mutable spans : span list;  (** Newest first. *)
  mutable next_id : int;
  mutable open_ids : int list;  (** Innermost open span first. *)
  mutable op : int;
  mutable ao_marks : (float * string) list;  (** Newest first. *)
}

let create () =
  { origin = now (); spans = []; next_id = 0; open_ids = []; op = -1; ao_marks = [] }

let set_op t op = t.op <- op

(* A fresh span id and the innermost open span, its parent. *)
let next t =
  let id = t.next_id in
  t.next_id <- id + 1;
  (id, match t.open_ids with p :: _ -> p | [] -> -1)

(* [add t ?op name ~start ~stop] records an already-finished interval as
   a child of the innermost open span. *)
let add t ?(op = t.op) name ~start ~stop =
  let id, parent = next t in
  t.spans <- { id; name; start; stop; parent; op } :: t.spans

(* [run tracer name f] is [f ()], recorded as a span when tracing. *)
let run tracer name f =
  match tracer with
  | None -> f ()
  | Some t ->
      let id, parent = next t in
      t.open_ids <- id :: t.open_ids;
      let op = t.op and start = now () in
      Fun.protect
        ~finally:(fun () ->
          t.open_ids <- List.tl t.open_ids;
          t.spans <- { id; name; start; stop = now (); parent; op } :: t.spans)
        f

let watch_ao t =
  match List.find_opt (fun s -> String.equal (Logs.Src.name s) "fosc.ao") (Logs.Src.list ()) with
  | None -> failwith "fosc-bench: the fosc.ao log source is gone; AO stages cannot be timed"
  | Some src ->
      Logs.Src.set_level src (Some Logs.Debug);
      let report s _level ~over k msgf =
        if s == src then begin
          let stamp = now () in
          msgf (fun ?header:_ ?tags:_ fmt ->
              Format.kasprintf
                (fun msg ->
                  t.ao_marks <- (stamp, msg) :: t.ao_marks;
                  over ();
                  k ())
                fmt)
        end
        else begin
          over ();
          k ()
        end
      in
      Logs.set_reporter { Logs.report }

(* [take_ao_marks t] returns and clears the marks since the last call,
   oldest first. *)
let take_ao_marks t =
  let marks = List.rev t.ao_marks in
  t.ao_marks <- [];
  marks

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\": %d, \"name\": %s, \"start\": %.9f, \"end\": %.9f, \"parent\": %d, \"op\": %d}\n"
            s.id (Metric.json_string s.name) (s.start -. t.origin) (s.stop -. t.origin) s.parent
            s.op)
        (List.sort (fun a b -> Int.compare a.id b.id) t.spans))
