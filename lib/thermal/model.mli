(** Compact thermal model in the paper's state-space form.

    Working in ambient-relative temperatures [theta = T - T_amb], the
    model is [dtheta/dt = A theta + b(psi)] with
    [A = -C^{-1}(G - beta E)] and [b(psi) = C^{-1}(E psi + beta T_amb e)],
    where [E] maps per-core dynamic+static power [psi(v)] into node space,
    [beta] is the linear leakage/temperature slope of Eq. (1), and [e] is
    the indicator of core nodes.  [A] is similar to a symmetric negative
    definite matrix, so it is diagonalized once ([A = W D W^{-1}] with
    real negative [D]) — the MatEx trick of the paper's reference [28].
    The model itself is immutable data: transients and stable statuses
    are evaluated in that eigenbasis by {!Modal}. *)

type t

(** [make ~ambient ~leak_beta ~capacitance ~conductance ~core_nodes ()]
    assembles and diagonalizes the model.  [capacitance] is the diagonal
    of [C] (J/K, all positive); [conductance] is the symmetric [G] from
    {!Rc_network.conductance_matrix}; [core_nodes] lists the node indices
    that host cores (power inputs and temperature constraints).  Raises
    [Invalid_argument] on dimension mismatches, a non-symmetric [G], a
    non-finite [ambient], a [leak_beta] that is negative or not finite,
    or one so large that [G - beta E] loses positive definiteness
    (thermal runaway). *)
val make :
  ambient:float ->
  leak_beta:float ->
  capacitance:Linalg.Vec.t ->
  conductance:Linalg.Mat.t ->
  core_nodes:int array ->
  unit ->
  t

(** [n_nodes m] is the full thermal node count. *)
val n_nodes : t -> int

(** [n_cores m] is the number of core nodes. *)
val n_cores : t -> int

(** [core_nodes m] is a copy of the core-node index array. *)
val core_nodes : t -> int array

(** [ambient m] is the ambient temperature, degrees C. *)
val ambient : t -> float

(** [leak_beta m] is the leakage/temperature slope, W/K. *)
val leak_beta : t -> float

(** [a_matrix m] is a copy of [A]. *)
val a_matrix : t -> Linalg.Mat.t

(** [capacitance m] is a copy of the diagonal of [C], J/K. *)
val capacitance : t -> Linalg.Vec.t

(** [effective_conductance m] is a copy of [G' = G - beta E] — the
    symmetric positive definite matrix behind every solve.  {!Spec}
    reconstructs a sparse problem description from it for backend
    parity testing. *)
val effective_conductance : t -> Linalg.Mat.t

(** [input_of_core_powers m psi] is [b(psi)]; [psi] has one entry per
    core. *)
val input_of_core_powers : t -> Linalg.Vec.t -> Linalg.Vec.t

(** [theta_inf m psi] is the ambient-relative steady state
    [-A^{-1} b(psi)] for constant per-core powers [psi]. *)
val theta_inf : t -> Linalg.Vec.t -> Linalg.Vec.t

(** [steady_core_temps m psi] is the absolute steady core temperatures —
    the [T^inf] of the paper's Algorithm 1 line 7. *)
val steady_core_temps : t -> Linalg.Vec.t -> Linalg.Vec.t

(** [core_temps_of_theta m theta] projects a full ambient-relative state
    onto absolute core temperatures. *)
val core_temps_of_theta : t -> Linalg.Vec.t -> Linalg.Vec.t

(** [max_core_temp m theta] is the hottest absolute core temperature in
    state [theta]. *)
val max_core_temp : t -> Linalg.Vec.t -> float

(** [eigenvalues m] are the (all negative) eigenvalues of [A], ordered
    closest-to-zero first (slowest mode first). *)
val eigenvalues : t -> Linalg.Vec.t

(** [time_constants m] are [-1 / lambda_i], descending — the thermal time
    constants. *)
val time_constants : t -> Linalg.Vec.t

(** Constraint on a core node for {!solve_mixed}. *)
type core_constraint =
  | Pinned_temperature of float
      (** The core is held at this absolute temperature; its power is an
          unknown to solve for. *)
  | Known_power of float
      (** The core dissipates this [psi] (W); its temperature is an
          unknown. *)

(** [solve_mixed m constraints] solves the steady-state equations with
    one constraint per core (array indexed like the core list).  Passive
    nodes are always unknown-temperature, zero-power.  Returns the
    per-core power vector [psi] (entries at [Known_power] cores echo the
    input) and the absolute temperatures of all nodes.  Raises
    [Invalid_argument] on arity mismatch. *)
val solve_mixed :
  t -> core_constraint array -> Linalg.Vec.t * Linalg.Vec.t

(** [solve_powers_for_uniform_core_temp m t_target] solves the paper's
    ideal-speed step (Section V): pin every core node at [t_target]
    (absolute), solve the steady equations for the passive-node
    temperatures, and return the per-core power [psi] each core may
    dissipate.  Entries can be negative when [t_target] is below what
    neighbouring heat alone would impose. *)
val solve_powers_for_uniform_core_temp : t -> float -> Linalg.Vec.t

(** [eigenbasis m] is [(lambda, w, w_inv)] with
    [A = w diag(lambda) w_inv] and [lambda] ordered closest-to-zero
    first (slowest mode first) — the raw modal data, exposed for
    {!Reduced}. *)
val eigenbasis : t -> Linalg.Vec.t * Linalg.Mat.t * Linalg.Mat.t

(** [modal_parts m] is [(lambda, w, w_inv)] like {!eigenbasis} but
    WITHOUT copying: the returned arrays are the model's own and must be
    treated as read-only.  O(1); {!Modal.make} builds its engines on
    these, and engines over one model share its eigenvalue vector (their
    common decay/gain memo rows are tagged with it). *)
val modal_parts : t -> Linalg.Vec.t * Linalg.Mat.t * Linalg.Mat.t
