(* Regression model of Thermal.Reduced's former inner lazy tier, before
   this repo adopted the forced-before-parallel contract: a shared
   record field forced inside a pool closure.  Two workers first-forcing
   [rom.tables] concurrently raise Lazy.RacyLazy — the crash class the
   real code first prevented by forcing the field on the submitting
   domain under an annotation, and now avoids by building its static
   tier eagerly.  fosc-race must flag the unannotated force. *)

module Pool = struct
  let map f xs = List.map f xs
end

type rom = { tables : float array Lazy.t }

let make () = { tables = lazy (Array.make 4 0.) }

let scores rom xs = Pool.map (fun i -> (Lazy.force rom.tables).(i)) xs
