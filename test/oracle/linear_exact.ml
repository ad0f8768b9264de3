module Mat = Linalg.Mat
module Vec = Linalg.Vec

type t = { propagator : Mat.t; y_inf : Vec.t }

let prepare a b h =
  let y_inf = Vec.scale (-1.) (Linalg.Lu.solve a b) in
  { propagator = Expm.expm_scaled a h; y_inf }

let step s y =
  (* y' = e^{Ah} y + (I - e^{Ah}) y_inf = e^{Ah}(y - y_inf) + y_inf *)
  Vec.add (Mat.matvec s.propagator (Vec.sub y s.y_inf)) s.y_inf

let fixed_point s = Vec.copy s.y_inf
let propagator s = Mat.copy s.propagator
