(** Bench-history regression comparator.

    Compares a current [deflection-bench/1] document against one or more
    baseline runs (the committed baseline, or the N most recent entries
    of [bench/results/history/]) over a fixed list of {e tracked}
    wall-clock metrics. Baselines are reduced metric-wise by median — a
    median-of-N baseline absorbs one outlier run — and each metric gets
    an explicit [better] / [worse] / [neutral] / [missing] verdict under
    its own relative noise tolerance. The verdict document
    ([deflection-benchdiff/1]) is what [json_check --regress] gates on:
    any [worse] metric fails the gate.

    Deterministic virtual-cycle results (overhead ratios, instruction
    counts) are pinned by tests and need no tolerance band; this module
    exists for the wall-clock throughput metrics that real machines
    jitter. *)

type direction = Higher_better | Lower_better

type metric = {
  m_name : string;  (** e.g. ["gateway.warm_over_cold_x"] *)
  m_path : string list;  (** object path into the bench document *)
  m_direction : direction;
  m_tolerance_pct : float;
      (** relative noise band: a delta within ±tolerance is [neutral] *)
}

val tracked : metric list
(** The gated metrics: gateway warm-over-cold speedup and cold session
    throughput, server saturation and warm hit ratio after restart,
    verifier instructions/second (fuzz section), nBench interpreter
    instructions/second (table2 and tier sections), witnessed-replay
    instructions/second, and M521 Diffie-Hellman operations/second
    (crypto section). *)

type verdict = Better | Worse | Neutral | Missing

val verdict_label : verdict -> string
(** ["better"] / ["worse"] / ["neutral"] / ["missing"]. *)

type comparison = {
  c_metric : metric;
  c_baseline : float option;  (** median across the baseline runs *)
  c_current : float option;
  c_delta_pct : float option;  (** (current - baseline) / baseline * 100 *)
  c_verdict : verdict;
}

type report = {
  comparisons : comparison list;
  regressions : int;  (** number of [Worse] verdicts *)
  improvements : int;  (** number of [Better] verdicts *)
  ok : bool;  (** [regressions = 0] *)
}

val number_at : Json.t -> string list -> float option
(** Follow an object path and read a numeric leaf. *)

val median : float list -> float
(** 0.0 on the empty list; the mean of the middle pair on even lengths. *)

val compare_docs : baseline:Json.t list -> current:Json.t -> report
(** Compare the current bench document against the metric-wise median of
    the baseline documents. A metric absent on either side (e.g. a quick
    run that skipped the section) is [Missing] and never fails the gate. *)

val report_to_json :
  baseline_files:string list -> current_file:string -> report -> Json.t
(** The [deflection-benchdiff/1] verdict document. *)
