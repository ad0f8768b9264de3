(** Matrix exponential by Padé approximation with scaling and squaring.

    This is the generic [e^{A}] used to cross-check the eigen-basis
    propagator of {!Reference} and to exponentiate matrices that are not
    similar to a symmetric one (e.g. perturbed models in tests).  The algorithm is
    the Higham 2005 degree-13 Padé scheme with a simplified, conservative
    scaling rule. *)

(** [expm a] is [e^{A}] for square [a]. *)
val expm : Linalg.Mat.t -> Linalg.Mat.t

(** [expm_scaled a t] is [e^{At}], avoiding an intermediate copy. *)
val expm_scaled : Linalg.Mat.t -> float -> Linalg.Mat.t
