(** End-to-end CCaaS session orchestration (the full Figure-3 workflow):

    platform setup -> bootstrap enclave -> code-provider attestation +
    sealed binary delivery -> load/verify/rewrite -> data-owner attestation
    + sealed data upload -> execution -> sealed outputs decrypted by the
    owner.

    {!admit} runs one session under an admission record
    ({!Bootstrap.config}); {!run} is its labelled front end, used by the
    examples and the benchmark harness. *)

module Policy = Deflection_policy.Policy
module Interp = Deflection_runtime.Interp
module Verifier = Deflection_verifier.Verifier
module Layout = Deflection_enclave.Layout
module Manifest = Deflection_policy.Manifest
module Telemetry = Deflection_telemetry.Telemetry
module Ratls = Deflection_attestation.Attestation.Ratls
module Flight_recorder = Deflection_forensics.Flight_recorder
module Profiler = Deflection_forensics.Profiler
module Report = Deflection_forensics.Report
module Chaos = Deflection_chaos.Chaos
module Resilience = Deflection_chaos.Resilience

(** Which protocol stage failed, with the stage-specific detail. *)
type error =
  | Compile_error of Deflection_compiler.Frontend.error
  | Attestation_error of { role : Ratls.role; detail : string }
  | Delivery_error of Bootstrap.ecall_error
      (** sealed-binary delivery failed before or after verification
          (auth, parse, load, rewrite) *)
  | Verifier_rejection of Verifier.rejection
      (** the in-enclave verifier refused the binary *)
  | Upload_error of Bootstrap.ecall_error
  | Runtime_error of Bootstrap.ecall_error
  | Decrypt_error of string
  | Stage_timeout of { stage : string; detail : string }
      (** the stage's retry/backoff budget ran out without ever producing
          a structured response (e.g. every transmission was dropped);
          persistent structured failures keep their own stage error *)

val pp_error : Format.formatter -> error -> unit

val error_to_string : error -> string
(** Renders the same messages the pre-structured string API produced. *)

val exit_code : error -> int
(** The documented process exit code for each failure stage, all distinct:
    verifier rejection 2, compile 3, attestation 4, runtime 5, delivery 6,
    upload 7, decrypt 8, stage timeout 10. (The CLI additionally uses 9
    for a protocol-level [Ok] whose enclave program aborted or faulted,
    11 when the watchdog fuel ran out, and 1 for usage/other errors.) *)

type outcome = {
  verifier_report : Verifier.report;
  rewritten_imms : int;
  exit : Interp.exit_reason;
  cycles : int;
  instructions : int;
  aexes : int;
  ocalls : int;
  leaked_bytes : int;
  outputs : bytes list;  (** plaintext records, decrypted by the owner *)
  telemetry : Telemetry.snapshot;
      (** spans/counters for the whole protocol run (root span
          ["session"]) — always populated, from a private registry when no
          [tm] was passed *)
  crash : Report.crash option;
      (** present iff [exit] is abnormal (policy abort, fault, limit):
          the frozen forensic state of the enclave at the point of death *)
  retries : Resilience.stage_stats list;
      (** per-stage retry/backoff statistics, in execution order; every
          stage appears (clean runs show one attempt and no backoff) *)
}

val process_exit_code : (outcome, error) result -> int
(** The full CLI exit-code contract in one place: [Error e] is
    [exit_code e]; a protocol-level [Ok] maps the enclave program's exit
    reason — normal termination 0, watchdog fuel exhaustion 11, any other
    abort/fault 9. *)

val admit :
  ?precompiled:Deflection_isa.Objfile.t ->
  ?chaos:Chaos.t ->
  ?tm:Telemetry.t ->
  ?recorder:Flight_recorder.t ->
  ?profiler:Profiler.t ->
  Bootstrap.config ->
  source:string ->
  inputs:bytes list ->
  (outcome, error) result
(** Run the whole protocol for one admission record. The enclave is
    built from [config] unchanged, and the code provider compiles for the
    same record: [config.policies] and [config.manifest.ssa_q], the q the
    enclave then enforces. [inputs] are the data owner's chunks, consumed
    one per [recv] OCall.

    [precompiled] skips the provider's compile step and delivers the given
    objfile instead; with [config.verifier_cache] it is the gateway's
    verify-once/admit-many fast path. [tm] threads one registry through
    every stage (compile, attest, deliver, load/verify/rewrite, upload,
    execute, decrypt); when omitted, a fresh private registry backs
    [outcome.telemetry]. [recorder]/[profiler] (default disabled) attach
    the flight recorder and the sampling profiler to the interpreter.

    [chaos] (default {!Chaos.disabled}) threads a fault-injection engine
    through every stage: sealed records pass {!Chaos.transport}, quotes
    pass {!Chaos.corrupt_quote}, and the execution stage applies memory
    flips, AEX storms, OCall failures and fuel limits. Each logical
    message is sealed exactly once — retries resend the identical record,
    so the channel's sequence discipline rejects duplicates and replays
    while retransmissions of a lost record still land. [config.resilience]
    bounds the per-stage retry/backoff/timeout budget; backoff jitter
    derives from the chaos plan's seed (or [config.seed] when chaos is
    off), so runs are deterministic either way. *)

val run :
  ?policies:Policy.Set.t ->
  ?manifest:Manifest.t ->
  ?interp:Interp.config ->
  ?seed:int64 ->
  ?oram_capacity:int ->
  ?verifier_cache:Verifier.Cache.t ->
  ?precompiled:Deflection_isa.Objfile.t ->
  ?verification:Verifier.mode ->
  ?chaos:Chaos.t ->
  ?tm:Telemetry.t ->
  ?recorder:Flight_recorder.t ->
  ?profiler:Profiler.t ->
  source:string ->
  inputs:bytes list ->
  unit ->
  (outcome, error) result
(** The labelled front end of {!admit}: each label overrides one field of
    {!Bootstrap.default_config} (P1-P6, default manifest with q=20, small
    layout, descent verification, calm platform). *)

val compile_only :
  ?policies:Policy.Set.t ->
  ?ssa_q:int ->
  string ->
  (Deflection_isa.Objfile.t, string) result
