(** Fine-grid thermal model: HotSpot's "grid mode" analogue.

    Each floorplan block is subdivided into [k x k] sub-cells, every
    cell becoming its own RC node with a proportional share of the
    block's power.  This refines the core-level lumping spatially —
    intra-core gradients appear — and serves as an independent check
    that the block-level model the policies use is not hiding hot spots
    (see the corresponding tests and the thermsim [--layered]-style
    validation flow). *)

type t = {
  model : Model.t;  (** One node (and model-core) per sub-cell. *)
  mapping : int array array;  (** [mapping.(i)] = cell indices of block [i]. *)
  subdivisions : int;
}

(** [build ?subdivisions ?ambient ?leak_beta fp] subdivides every block
    of [fp] into [subdivisions x subdivisions] cells (default 3) and
    assembles the model with the same calibrated material constants as
    {!Hotspot.core_level}.  Raises [Invalid_argument] for
    [subdivisions < 1]. *)
val build : ?subdivisions:int -> ?ambient:float -> ?leak_beta:float -> Floorplan.t -> t

(** [build_spec ?subdivisions ?ambient ?leak_beta fp] is the dense-free
    counterpart of {!build}: the same subdivided floorplan and material
    constants, returned as a sparse problem description plus the
    block-to-cell mapping — no [Model.make], no O(n³) eigensolve, so it
    scales to the 256–1024-cell grids the sparse backend targets. *)
val build_spec :
  ?subdivisions:int ->
  ?ambient:float ->
  ?leak_beta:float ->
  Floorplan.t ->
  Spec.t * int array array

(** [sheet_floorplan ?core_width ?core_height ~rows ~cols ()] is a
    single-layer [rows x cols] mesh of identical cores (default 4x4 mm²
    — the paper's core size), the generator behind the 8x8 through
    32x32 scaling studies. *)
val sheet_floorplan :
  ?core_width:float -> ?core_height:float -> rows:int -> cols:int -> unit -> Floorplan.t

(** [sheet_spec ?ambient ?leak_beta ?core_width ?core_height ~rows ~cols
    ()] is the sparse problem description of {!sheet_floorplan}: every
    cell is a core node.  At [32 x 32] this assembles 1024 nodes in
    O(nnz) — feed it to {!Sparse_response.of_spec}. *)
val sheet_spec :
  ?ambient:float ->
  ?leak_beta:float ->
  ?core_width:float ->
  ?core_height:float ->
  rows:int ->
  cols:int ->
  unit ->
  Spec.t

(** [expand_powers g psi] turns per-block powers into per-cell powers
    (uniform split within each block). *)
val expand_powers : t -> Linalg.Vec.t -> Linalg.Vec.t

(** [steady_block_temps g psi] is each block's HOTTEST cell temperature
    at steady state under per-block powers [psi]. *)
val steady_block_temps : t -> Linalg.Vec.t -> Linalg.Vec.t

(** [profile_of g p] lifts a per-block power profile to the cell level,
    so {!Matex} can analyse periodic schedules on the fine grid. *)
val profile_of : t -> Matex.profile -> Matex.profile
