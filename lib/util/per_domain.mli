(** Per-domain values held by an owner rather than a [Domain.DLS] key.

    [Domain.DLS] keys are never freed, so scratch behind a key taken per
    engine outlives the engine on every domain that used it.  A
    [Per_domain.t] lives inside its owner (the evaluation engines of
    [Thermal]), and every domain's value dies with it. *)

type 'a t

(** [make init] holds no values yet; each domain's first {!get} runs
    [init] on that domain. *)
val make : (unit -> 'a) -> 'a t

(** [get t] is the calling domain's value.  Lock-free; after a domain's
    first call it allocates nothing.  The value belongs to the calling
    domain: do not hand it to another one. *)
val get : 'a t -> 'a
