(** Uniform thermal-evaluation backend interface.

    Policies and experiment drivers ask a small set of questions —
    steady peaks, stable-status temperatures, scanned/refined period
    peaks, exact transient steps — and must not care whether the answers
    come from the dense modal engine ({!Modal}, O(n³) build, exact
    eigenbasis) or the sparse Krylov engine ({!Sparse_model}, O(nnz)
    build, CG + Lanczos solves).  A backend is a record of closures over
    one of those engines, and every field is an engine primitive.
    {!Sched.Peak} writes each evaluator once against it — steady peaks
    through the [steady_*] fields, every period-boundary stable status
    (whole profiles and the fused two-mode stream alike) through
    {!field:stable_begin}/{!field:stable_feed}/{!field:stable_solve},
    the scanned and refined in-period peaks by walking the stable period
    with {!field:equilibrium_into}/{!field:advance_into} and probing
    with {!field:step_into}, the TPT delta scans through the
    [base_*]/[delta_*] hooks — and {!Core.Eval} holds one, so every
    registered policy runs unchanged on either implementation.

    States are opaque to callers: modal coordinates for the dense
    backend, symmetrized node coordinates for the sparse one.  Obtain
    them only from {!field:ambient_state}/{!field:step} of the SAME
    backend and read them through {!field:core_temps}/
    {!field:max_core_temp}.  The differential suite pins both
    implementations to each other to ≤ 1e-9. *)

type t = {
  name : string;
      (** ["dense-modal"] or ["sparse-response"]. *)
  n_nodes : int;
  n_cores : int;
  ambient : float;
  ambient_state : unit -> Linalg.Vec.t;  (** The all-ambient state. *)
  step : dt:float -> state:Linalg.Vec.t -> psi:Linalg.Vec.t -> Linalg.Vec.t;
      (** Exact LTI advance under constant per-core powers. *)
  step_into :
    dt:float -> state:Linalg.Vec.t -> psi:Linalg.Vec.t -> dst:Linalg.Vec.t -> unit;
      (** {!field:step} writing into a caller-owned buffer [dst] (same
          length as [state], physically distinct from it) — the epoch
          loop's ping-pong hook.  Allocation-free on the dense backend;
          the sparse backends fall back to [step] plus a blit. *)
  correct_cores : state:Linalg.Vec.t -> deltas:Linalg.Vec.t -> unit;
      (** In-place measured-state correction: add [deltas.(k)] kelvin to
          core [k]'s temperature reading, mapped into the backend's
          opaque state coordinates; off-core nodes are untouched.  The
          restart hook observers correct estimates through — the only
          way to edit a state without knowing its coordinate system. *)
  core_temps : Linalg.Vec.t -> Linalg.Vec.t;
      (** Absolute core temperatures of a state. *)
  max_core_temp : Linalg.Vec.t -> float;
  steady_core_temps : Linalg.Vec.t -> Linalg.Vec.t;
      (** Absolute steady core temperatures under constant powers. *)
  steady_peak : Linalg.Vec.t -> float;
  equilibrium_into : psi:Linalg.Vec.t -> dst:Linalg.Vec.t -> unit;
      (** The equilibrium state under constant per-core powers [psi],
          superposed into [dst] (a state-length buffer) — the [eq] that
          {!field:advance_into} steps toward. *)
  advance_into :
    dt:float -> eq:Linalg.Vec.t -> src:Linalg.Vec.t -> dst:Linalg.Vec.t -> unit;
      (** Exact advance of [src] by [dt] toward the equilibrium [eq],
          written into [dst]; [dst] may alias [src].  The sub-step of
          every in-period walk: one equilibrium per segment, many steps
          toward it.  Allocation-free on the dense backend; the sparse
          one applies one [expmv] and blits. *)
  stable_begin : unit -> unit;
      (** Fused stable-status stream, the candidate hot path: reset this
          domain's accumulator ... *)
  stable_feed : duration:float -> psi:Linalg.Vec.t -> unit;
      (** ... fold one constant-power span into it (in period order;
          [Invalid_argument] on a non-positive duration) ... *)
  stable_solve : t_p:float -> Linalg.Vec.t;
      (** ... and solve the period-[t_p] fixed point.  The returned
          state is read through {!field:core_temps}/{!field:max_core_temp}
          and may be per-domain scratch: read it before the next stream
          on this domain. *)
  base_begin : t_p:float -> unit;
      (** Prepared-base delta evaluation (DESIGN.md §14): start a base
          two-mode config of period [t_p] on this domain ... *)
  base_feed : core:int -> psi_low:float -> psi_high:float -> high_ratio:float -> unit;
      (** ... record core [core]'s low/high powers and duty ratio (every
          core exactly once) ... *)
  base_solve : unit -> Linalg.Vec.t;
      (** ... solve the base and arm the delta reads; returns this
          domain's scratch base state.  Base state is per-domain and
          untouched by interleaved streams. *)
  delta_peak : core:int -> psi_low:float -> psi_high:float -> high_ratio:float -> float;
      (** End-of-period stable peak of the prepared base with core
          [core]'s terms replaced. *)
  delta_core_temp :
    at:int -> core:int -> psi_low:float -> psi_high:float -> high_ratio:float -> float;
      (** The same candidate's end-of-period temperature at core [at]. *)
}

(** [of_modal eng] is the dense reference backend: the {!Modal}
    response engine [eng] behind the uniform interface (correction
    columns built on first use). *)
val of_modal : Modal.t -> t

(** [of_model model] is [of_modal (Modal.make model)], a new engine per
    call, for callers holding only a model; code that evaluates one
    platform repeatedly keeps the engine (or a [Core.Eval] context). *)
val of_model : Model.t -> t

(** [of_response resp] wraps a {!Sparse_response} superposition engine:
    steady and stable evaluators superpose over the unit-response tables
    (and warm-start the fixed-point CG) instead of solving per-candidate
    steady systems; the engine pays its [n_cores + 1] unit solves up
    front.  Code measuring the direct Krylov engine calls
    {!Sparse_model} itself. *)
val of_response : Sparse_response.t -> t
