(** Generic lumped thermal RC networks.

    A network is a set of nodes, each with a heat capacitance and an
    optional conductance to ambient, plus symmetric node-to-node
    conductances.  It assembles into the matrices of the paper's Eq. (2):
    temperatures (relative to ambient) obey
    [C dtheta/dt = -G theta + p(t)], where [G] collects both ambient and
    inter-node conductances.  {!Model} combines this with a leakage slope
    to form the [A]/[B] system the scheduling code works with. *)

type t

(** [create ()] is an empty network. *)
val create : unit -> t

(** [add_node net ~name ~capacitance ~to_ambient] appends a node and
    returns its index.  [capacitance] is in J/K (must be positive),
    [to_ambient] in W/K (must be non-negative). *)
val add_node : t -> name:string -> capacitance:float -> to_ambient:float -> int

(** [connect net i j g] adds conductance [g] W/K between distinct nodes
    [i] and [j] (accumulating if already connected).  Raises
    [Invalid_argument] on self-loops, negative conductance, or bad
    indices. *)
val connect : t -> int -> int -> float -> unit

(** [add_to_ambient net i g] increases node [i]'s ambient conductance. *)
val add_to_ambient : t -> int -> float -> unit

(** [n_nodes net] is the current node count. *)
val n_nodes : t -> int

(** [node_name net i] is the name given at {!add_node} time. *)
val node_name : t -> int -> string

(** [capacitance_vector net] is the diagonal of [C], J/K. *)
val capacitance_vector : t -> Linalg.Vec.t

(** [to_ambient_vector net] is the per-node ambient conductance, W/K. *)
val to_ambient_vector : t -> Linalg.Vec.t

(** [edges net] lists the node-to-node conductances [(i, j, g)] in
    insertion order (duplicates appear as given; they accumulate on
    assembly).  This is the natural sparsity the sparse backend
    ({!Spec}, {!Sparse_response}) assembles from without ever forming the
    dense matrix. *)
val edges : t -> (int * int * float) list

(** [conductance_matrix net] assembles the symmetric matrix [G]:
    [G_ii = g_ambient_i + sum_j g_ij], [G_ij = -g_ij].  With every node
    grounded through a positive path to ambient, [G] is an irreducibly
    diagonally dominant M-matrix, hence [-G] is Hurwitz and
    [G^{-1} >= 0] — the positivity fact the paper's proofs lean on. *)
val conductance_matrix : t -> Linalg.Mat.t

(** [is_grounded net] checks that at least one node has a positive
    ambient conductance (otherwise steady states do not exist). *)
val is_grounded : t -> bool
