(** Exact stepping for linear time-invariant systems [dy/dt = A y + b].

    For an LTI system the solution over a step of length [h] is
    [y(t+h) = e^{Ah} y(t) + (I - e^{Ah}) y_inf] with
    [y_inf = -A^{-1} b] — equation (3) of the paper.  This module packages
    that formula for the integrator cross-checks. *)

type t
(** A prepared stepper for one [(A, b)] pair and one step size. *)

(** [prepare a b h] precomputes [e^{Ah}] and [y_inf].  Raises if [a] is
    singular. *)
val prepare : Linalg.Mat.t -> Linalg.Vec.t -> float -> t

(** [step s y] advances [y] by the prepared step size. *)
val step : t -> Linalg.Vec.t -> Linalg.Vec.t

(** [fixed_point s] is [y_inf = -A^{-1} b], the equilibrium the step
    converges to. *)
val fixed_point : t -> Linalg.Vec.t

(** [propagator s] is the prepared [e^{Ah}]. *)
val propagator : t -> Linalg.Mat.t
