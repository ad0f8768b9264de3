(** Lightweight thermal problem description — the sparse backend's input.

    {!Model.make} eagerly pays an O(n³) dense eigendecomposition, which
    is exactly what the sparse path must avoid at 256–1024 cells.  A
    spec carries the raw problem data instead — capacitances, ambient
    conductances, the edge list, the core-node set — so
    {!Sparse_response.of_spec} can assemble its CSR operator in O(nnz)
    without ever forming a dense matrix, while {!to_model} still builds
    the dense reference model from the identical data for differential
    testing. *)

type t = private {
  ambient : float;  (** Ambient temperature, degrees C. *)
  leak_beta : float;  (** Leakage/temperature slope, W/K per core. *)
  capacitance : Linalg.Vec.t;  (** Diagonal of [C], J/K, all positive. *)
  to_ambient : Linalg.Vec.t;  (** Per-node ambient conductance, W/K. *)
  edges : (int * int * float) list;
      (** Node-to-node conductances [(i, j, g)], [g > 0], [i <> j].
          Duplicates accumulate on assembly. *)
  core_nodes : int array;  (** Distinct node indices hosting cores. *)
}

(** [make ~ambient ~leak_beta ~capacitance ~to_ambient ~edges
    ~core_nodes ()] validates and builds a spec.  Raises
    [Invalid_argument] on arity mismatches, a non-finite ambient, a
    leakage slope or conductance that is negative or not finite,
    capacitances that are not finite and positive, self-loops,
    out-of-range or duplicate core nodes, or an empty core set. *)
val make :
  ambient:float ->
  leak_beta:float ->
  capacitance:Linalg.Vec.t ->
  to_ambient:Linalg.Vec.t ->
  edges:(int * int * float) list ->
  core_nodes:int array ->
  unit ->
  t

(** [of_network ?ambient ?leak_beta ~core_nodes net] reads the node and
    edge data straight out of an RC network (defaults:
    {!Hotspot.default_ambient}, {!Hotspot.default_leak_beta}). *)
val of_network :
  ?ambient:float -> ?leak_beta:float -> core_nodes:int array -> Rc_network.t -> t

(** [of_model model] reconstructs the spec of an already-built dense
    model from its effective conductance — the bridge that lets the
    sparse backend run on any existing {!Model.t} for parity tests. *)
val of_model : Model.t -> t

(** [n_nodes spec] is the thermal node count. *)
val n_nodes : t -> int

(** [n_cores spec] is the core count. *)
val n_cores : t -> int

(** [g_eff_triplets spec] is [G' = G - beta E] as assembly triplets
    (duplicates sum): ambient and accumulated edge conductances on the
    diagonal, [-beta] at core diagonals, [-g] off-diagonal.  Feed to
    {!Linalg.Sparse.of_triplets} — O(nnz), no dense intermediate. *)
val g_eff_triplets : t -> (int * int * float) list

(** [to_model spec] assembles the dense {!Model.t} of the same problem
    (including its O(n³) eigensolve) — the reference path. *)
val to_model : t -> Model.t
