(** Verify-once/admit-many serving gateway.

    A gateway drives a batch of independent CCaaS sessions — each its own
    bootstrap enclave, attestation handshakes, sealed delivery, execution
    and output decryption — through two shared fast paths:

    - a {!Verifier.Cache} of verdicts keyed by the measurement of the
      delivered binary (SHA-256 of the serialized objfile) bound to the
      enforced policy set and SSA inspection period, so N sessions of the
      same binary pay the in-enclave verifier pass once; and
    - compile-once sharing: each distinct (source, policy set) pair is
      compiled a single time and the objfile handed to every session that
      delivers it.

    Batches fan out over 1..K OCaml domains. The dispatch is an atomic
    work-stealing index, results land in per-job slots, and telemetry
    counters are summed after the join, so a batch's results and merged
    counters are identical regardless of the worker count — the property
    [suite_gateway] pins with a K=1 vs K=4 diff. *)

module Session = Deflection.Session
module Bootstrap = Deflection.Bootstrap
module Policy = Deflection_policy.Policy
module Verifier = Deflection_verifier.Verifier
module Telemetry = Deflection_telemetry.Telemetry
module Hdr = Deflection_telemetry.Hdr
module Audit = Deflection_audit.Audit

type job = {
  label : string;  (** caller-chosen name, echoed in the result *)
  source : string;  (** MiniC source the code provider ships *)
  compile_policies : Policy.Set.t option;
      (** policy set the binary is {e annotated} for; [None] compiles for
          the batch's enforced set. A mismatching subset (e.g. compiling
          for P1-P4 under a P1-P6 gateway) is the canonical way to get a
          verifier rejection into a batch. *)
  inputs : bytes list;  (** the data owner's chunks *)
  seed : int64;
}

val job :
  ?compile_policies:Policy.Set.t ->
  ?inputs:bytes list ->
  ?seed:int64 ->
  label:string ->
  string ->
  job
(** [job ~label source] with defaults: compile for the batch policy set,
    no inputs, seed 1. *)

type session_result = {
  label : string;
  seed : int64;
  outcome : (Session.outcome, Session.error) result;
  exit_code : int;  (** {!Session.process_exit_code} of [outcome] *)
}

type batch = {
  results : session_result list;  (** in job order, independent of [workers] *)
  counters : (string * int) list;
      (** telemetry counters summed over every session, sorted by name —
          equal to the sequential totals for any worker count *)
  cache_stats : Verifier.Cache.stats option;
      (** verdict-cache accounting, when a cache was supplied *)
  distinct_binaries : int;
      (** distinct (source, policy set) pairs compiled up front (0 on the
          cold path, which compiles per session) *)
  workers : int;  (** domains actually used: [min jobs (max n 1)] *)
  latencies : (string * Hdr.t) list;
      (** per-stage wall-clock latency histograms, sorted by name: one
          family per session span name ([session], [verify], [compile],
          [execute], [deliver], ...) plus [session.cache_hit] /
          [session.cache_miss] splitting whole-session latency by
          verdict-cache outcome, and one [verifier.pass.*] family per
          instrumented verifier pass ([decode], [p1_store], [p2_rsp],
          [p5_cfi], [p5_stack], [p6_ssa]) — each session that ran a
          fresh verifier pass contributes one per-pass nanosecond
          sample. Per-worker instances are merged exactly
          at join, so sample {e counts} are schedule-independent; the
          recorded durations are wall-clock and belong in the
          timing-variant part of any export. *)
  trace : Telemetry.snapshot option;
      (** the grafted batch trace — root [gateway.batch] span, one
          [worker.K] lane per domain, every session's span tree
          re-parented under its lane — when a tracing registry was
          passed; [None] otherwise *)
}

val merge_latencies : (string, Hdr.t) Hashtbl.t -> (string * Hdr.t) list -> unit
(** [merge_latencies into families] folds each named histogram into the
    family of the same name in [into], creating it on first sight. The
    merge is exact and order-independent ({!Hdr.merge_into}); a
    long-running caller uses it to accumulate {!batch.latencies} across
    batches. *)

val run_batch : ?jobs:int -> ?config:Bootstrap.config -> ?tm:Telemetry.t -> job list -> batch
(** Run every job to completion and return the batch in job order.

    [jobs] (default 1) is the domain fan-out; [invalid_arg] when < 1.

    [config] (default {!Bootstrap.default_config}) is the admission
    record every session runs under, passed to {!Session.admit} with two
    overrides: [seed] becomes the job's seed, and the [audit] sink's lane
    becomes the worker's index (lane 0 is the calling domain). The log
    serialises appends itself; the record {e set} minus seq/lane is
    schedule-independent, matching the batch's determinism contract.

    [config.verifier_cache] selects the path. With a cache, each
    enclave's binary-delivery ECall consults it ({e both} acceptances and
    rejections are cached) and distinct sources are compiled once up
    front, for [config.policies] and [config.manifest.ssa_q]. Without
    one, every session compiles and verifies its own delivery — the cold
    baseline.

    [tm] (default {!Telemetry.disabled}) is the batch-level registry: the
    dispatch runs under a [gateway.batch] root span on it, and when it is
    {e tracing} (ring or custom sink) every session additionally records
    into its own ring sink and [batch.trace] carries the grafted
    one-tree snapshot. Stage latency histograms are collected whether or
    not [tm] traces. *)
