(* A lock-free list of (domain id, value) slots.  Only domain [d] ever
   pushes [d]'s slot, so a CAS that loses a race retries against other
   domains' pushes only.  Slots are immutable, so a hit is a read-only
   walk that allocates nothing. *)

type 'a slots = Nil | Slot of int * 'a * 'a slots
type 'a t = { init : unit -> 'a; slots : 'a slots Atomic.t }

let make init = { init; slots = Atomic.make Nil }

let rec push t id v =
  let head = Atomic.get t.slots in
  if Atomic.compare_and_set t.slots head (Slot (id, v, head)) then v
  else push t id v

let rec find t id = function
  | Slot (d, v, rest) -> if d = id then v else find t id rest
  | Nil -> push t id (t.init ())

let get t = find t (Domain.self () :> int) (Atomic.get t.slots)
