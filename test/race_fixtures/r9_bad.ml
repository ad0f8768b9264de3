(* R9 fixture: per-domain scratch escaping its domain, both ways the
   analyzer catches — stored into a shared structure from inside the
   closure, and returned from a pool-reachable helper. *)

module Pool = struct
  let map f xs = List.map f xs
end

let scratch_key = Domain.DLS.new_key (fun () -> Array.make 8 0.)

let sink : float array Queue.t = Queue.create ()
[@@fosc.unguarded "fixture: only the R9 escape is under test here"]

let leak xs =
  Pool.map
    (fun x ->
      let s = Domain.DLS.get scratch_key in
      s.(0) <- float_of_int x;
      Queue.push s sink;
      s.(0))
    xs

let grab () = Domain.DLS.get scratch_key

let use xs = Pool.map (fun x -> (grab ()).(0) +. float_of_int x) xs

(* Engine-owned scratch ([Util.Per_domain] in lib/) is the same hazard:
   a slot borrowed by one domain, stored where every domain can see it. *)
module Per_domain = struct
  let make f = ref (f ())
  let get t = !t
end

let owned = Per_domain.make (fun () -> Array.make 8 0.)

let stash xs =
  Pool.map
    (fun x ->
      let s = Per_domain.get owned in
      Queue.push s sink;
      x)
    xs
