(** Deterministic pseudo-random number generator (SplitMix64).

    Every stochastic element of the simulation (AEX injection schedules,
    workload data, key generation) draws from an explicitly seeded [Prng.t]
    so that experiments are exactly reproducible. *)

type t

val create : int64 -> t
(** [create seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val copy : t -> t
(** Independent copy continuing from the same state. *)

(** {2 Stream splitting}

    Subsystems that each need their own deterministic randomness (the AEX
    injection schedule, the co-location observations, the chaos fault
    engine, retry-backoff jitter) must never share one stream: an extra
    draw by one would shift every later draw of the others, so merely
    {e enabling} a feature would perturb unrelated schedules. Instead,
    each consumer derives a private sub-seed from a common root seed and a
    distinct label.

    [derive root ~label] hashes [(root, label)] through SplitMix64's
    64-bit finalizer (preceded by an FNV-1a fold of the label), so
    distinct labels give statistically independent sub-seeds of the same
    root, and the mapping is stable across runs — the documented
    reproducibility contract of the chaos engine depends on it. Streams
    created from [derive]d seeds never interact: exhausting one leaves
    the others bit-for-bit unchanged (asserted by [suite_chaos]). *)

val derive : int64 -> label:string -> int64
(** [derive root ~label] is the sub-seed for the [label]ed consumer of
    [root]. Deterministic in both arguments; distinct labels yield
    independent streams. *)

val split : t -> label:string -> t
(** [split t ~label] draws once from [t] and returns a fresh generator
    seeded with [derive draw ~label]. Unlike {!derive} this advances [t];
    use it when handing streams to dynamically many children. *)

val next_int64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val bool : t -> bool

val bytes : t -> int -> bytes
(** [bytes t n] is [n] uniform bytes. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
