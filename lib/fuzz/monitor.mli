(** Monitored execution of a target binary through the verified pipeline
    (fuzzing layer 2's runtime oracle).

    [run] drives the exact consumer pipeline — load, verify, rewrite
    immediates, interpret — but single-steps the interpreter and checks
    the P1–P5 runtime invariants the static verifier is supposed to
    guarantee, instruction by instruction:

    - {b P1}: no store lands outside ELRANGE (checked both per
      instruction and against the memory leak log);
    - {b P2}: RSP stays inside the stack region;
    - {b P3}: no store below [code_lo] (SSA, TCS, branch table, shadow
      stack, runtime cells);
    - {b P4}: no store into the code region;
    - {b P5}: target code never writes the reserved shadow-stack
      register, indirect branches only reach branch-table entries,
      returns only reach text addresses, and the program counter never
      leaves the text region.

    Instructions belonging to verified annotation machinery (obtained
    from {!Deflection_verifier.Verifier.verify_classified}) are exempt
    from the store and R15 checks — the prologue, epilogue and AEX
    handler legitimately maintain exactly that state — but the {e
    guarded} store of each Figure-5 group is still checked: if a mutant
    fools the annotation, the monitor reports the violation.

    Each check is gated on its policy being in [monitor_policies], so a
    deliberately unsound configuration (verify with fewer policies than
    are monitored) is expressible — that is the harness self-test. *)

module Interp = Deflection_runtime.Interp
module Verifier = Deflection_verifier.Verifier
module Objfile = Deflection_isa.Objfile
module Policy = Deflection_policy.Policy

type violation = { policy : string; at : int; detail : string }
(** [at] is a text-section offset. *)

type exec = {
  exit : Interp.exit_reason;
  exit_code : int64 option;  (** [Some c] iff [exit] is [Exited c] *)
  outputs : string list;
      (** plaintext OCall outputs, formatted exactly as
          {!Deflection_compiler.Eval} formats its [outputs] *)
  violations : violation list;
  instructions : int;
  leaked_bytes : int;
  verifier_report : Verifier.report;
}

type outcome =
  | Rejected of Verifier.rejection  (** the verifier refused the binary *)
  | Load_refused of string  (** the loader refused it (also fail-closed) *)
  | Executed of exec

val pp_violation : Format.formatter -> violation -> unit

val run :
  ?inputs:bytes list ->
  ?instr_limit:int ->
  ?monitor_policies:Policy.Set.t ->
  policies:Policy.Set.t ->
  Objfile.t ->
  outcome
(** [policies] is the set the verifier checks and the imm rewriter
    installs; [monitor_policies] (default [policies]) is the set the
    runtime monitors enforce. [inputs] feeds the [recv] queue with Eval's
    chunk semantics. [instr_limit] (default 2_000_000) bounds execution.

    The enclave parameters are those of
    {!Deflection_policy.Manifest.default}: the loader's AEX threshold and
    the q at which P6 is verified. The q in the binary's header is never
    read, exactly as in the bootstrap enclave. *)
