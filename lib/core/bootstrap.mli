(** The bootstrap enclave — the paper's trusted code consumer.

    Its public, attestable code consists of the loader, the verifier, the
    imm rewriter and the OCall wrappers; its measurement covers that code
    and the enclave geometry, but deliberately {e not} the target binary,
    which arrives later through an ECall ([ecall_receive_binary]) over the
    code provider's secure channel.

    P0 enforcement lives here: only the manifest's OCalls are reachable;
    [send]/[print] output is encrypted to the data owner's session key and
    padded to a fixed record size; an optional entropy budget caps the
    total plaintext bits the service may emit. *)

module Layout = Deflection_enclave.Layout
module Memory = Deflection_enclave.Memory
module Manifest = Deflection_policy.Manifest
module Policy = Deflection_policy.Policy
module Interp = Deflection_runtime.Interp
module Verifier = Deflection_verifier.Verifier
module Attestation = Deflection_attestation.Attestation
module Flight_recorder = Deflection_forensics.Flight_recorder
module Profiler = Deflection_forensics.Profiler
module Report = Deflection_forensics.Report
module Audit = Deflection_audit.Audit

type config = {
  layout : Layout.config;
  manifest : Manifest.t;
  interp : Interp.config;
  policies : Policy.Set.t;  (** the policy set this enclave enforces *)
  verification : Verifier.mode;
      (** how {!ecall_receive_binary} verifies deliveries — recursive
          descent ([Descent], the default), the witness-checked linear
          pass ([Witnessed]), or witnessed with a descent fallback on
          witness-pass rejections ([Witnessed_fallback]). Part of the
          measured consumer identity and of the verdict-cache key. *)
  seed : int64;
  oram_capacity : int option;
      (** when set (and the manifest includes the [oram_*] OCalls, see
          {!Manifest.with_oram}), the enclave offers oblivious storage in
          untrusted host memory through a Path ORAM (paper Section VII) *)
  verifier_cache : Verifier.Cache.t option;
      (** when set, {!ecall_receive_binary} consults the measurement-keyed
          verdict cache before running its own verifier pass — the
          verify-once/admit-many fast path a gateway shares across the
          enclave instances it drives. [None] (the default) verifies every
          delivery from scratch. *)
  audit : Audit.sink option;
      (** when set, every admission decision {!ecall_receive_binary}
          renders — acceptance or rejection, from the cache or from a
          fresh verifier pass — appends one record to the shared
          hash-chained audit log, attributed to the sink's worker lane
          and counted on [tm] as ["audit.records"]. *)
  resilience : Deflection_chaos.Resilience.config;
      (** the retry budget: {!run}'s OCall wrapper re-issues a failing
          host call up to [max_attempts] times, and {!Session.admit}
          bounds every protocol stage with the same config. *)
}
(** The admission record. It is everything a party needs to know about
    how its binary will be judged and run: the measured consumer
    identity ([policies], [verification], [manifest] — whose [ssa_q] is
    the P6 inspection period the compiler targets {e and} the verifier
    enforces), plus the host-side parts ([layout], [interp], [seed],
    [verifier_cache], [audit], [resilience]). Server, gateway and
    session pass one record down unchanged; each layer overrides only
    the fields it owns. *)

val default_config : config
(** Small layout, P1-P6, q=20, calm platform (no AEX injection), no
    cache, no audit, default retry budget. *)

type t

(** Structured failure modes of the consumer's ECalls — the protocol layer
    maps these into {!Session.error} without string matching. *)
type ecall_error =
  | No_provider_session
  | No_owner_session
  | Auth_failure of string  (** which record ("binary" / "data") *)
  | Malformed_binary of string
  | Loader_error of Deflection_loader.Loader.error
  | Verifier_rejection of Verifier.rejection
  | Rewrite_error of Deflection_loader.Loader.error
  | Not_verified

val pp_ecall_error : Format.formatter -> ecall_error -> unit
val ecall_error_to_string : ecall_error -> string

val create :
  ?config:config ->
  ?tm:Deflection_telemetry.Telemetry.t ->
  platform:Attestation.Platform.t ->
  unit ->
  t
(** [tm] (default disabled) receives the enclave-side spans ("deliver"
    with load/verify/rewrite children, "execute"), the channel byte
    counters and the interpreter statistics. *)

val config : t -> config
val measurement : t -> bytes
(** The MRENCLAVE a remote party must expect. *)

val consumer_code : config -> bytes
(** The canonical bytes of the public consumer build measured into the
    enclave (a stand-in for the real loader/verifier binary; it commits to
    the consumer version, the manifest and the enforced policy set). *)

val accept_party :
  t -> role:Attestation.Ratls.role -> Attestation.Ratls.hello -> Attestation.Ratls.reply
(** RA-TLS handshake with the code provider or the data owner; the
    resulting session is retained inside the enclave. *)

val ecall_receive_binary : t -> bytes -> (Verifier.report * int, ecall_error) result
(** Decrypt the sealed target binary with the provider session, parse it,
    dynamically load and relocate it, run the verifier, and (only on
    acceptance) rewrite the annotation immediates. Returns the verifier
    report and the number of rewritten immediates. P6 is checked against
    the measured [config.manifest.ssa_q], never the q the binary's header
    declares; the same q keys the verdict cache and is written to the
    audit record. *)

val ecall_receive_userdata : t -> bytes -> (unit, ecall_error) result
(** Decrypt a sealed data record with the owner session and queue it for
    the service's [recv] OCall. *)

type run_stats = {
  exit : Interp.exit_reason;
  cycles : int;
  instructions : int;
  aexes : int;
  ocalls : int;
  leaked_bytes : int;
  sealed_outputs : bytes list;  (** records encrypted to the data owner *)
  crash : Report.crash option;
      (** present iff [exit] is abnormal: the frozen forensic state —
          violated policy, faulting instruction + disassembly window,
          register file, memory map, flight-recorder tail *)
}

val run :
  ?recorder:Flight_recorder.t ->
  ?profiler:Profiler.t ->
  ?chaos:Deflection_chaos.Chaos.t ->
  t ->
  (run_stats, ecall_error) result
(** Transfer execution to the verified target program. [recorder]
    (default disabled) rides the interpreter's stepping loop and is frozen
    into [crash] on abnormal exits; [profiler] (default disabled) samples
    pcs and is fed the loader's function symbol map before entry.

    [chaos] (default {!Deflection_chaos.Chaos.disabled}) injects the
    execution-stage faults of a chaos plan: pre-run bit flips in the
    non-measured data/stack pages, AEX-interval and watchdog-fuel
    overrides, and host-side OCall failures. The OCall wrapper retries a
    failing host call up to [config.resilience.max_attempts] times
    (charging virtual cycles per re-issue); a failure outlasting the
    budget halts the program with [Interp.Ocall_failed]. *)

val memory : t -> Memory.t

val oram_trace : t -> int list option
(** The bucket-access trace the untrusted host observed from the ORAM, if
    one is configured — the obliviousness tests inspect it. *)
