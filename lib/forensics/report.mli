(** Crash reports and rejection verdicts — the forensic artifacts.

    When a run ends abnormally (policy abort, memory fault, bad decode,
    division by zero...) the bootstrap freezes the interpreter state into
    a {!crash}: the violated policy clause, the faulting instruction's
    bytes and a decoded disassembly window around it, the register file,
    a snapshot of the enclave memory map with page permissions, and the
    tail of the flight recorder. When the verifier rejects a binary,
    {!explain_rejection} rebuilds the evidence — which pass failed, the
    offending bytes, whether the offset falls mid-instruction in the
    linear decode — into a {!verdict}.

    Both export as [deflection-forensics/1] JSON documents, and each
    document has one text renderer, {!render}, which reads the JSON: the
    terminal output of [deflectionc run --forensics=-] and [deflectionc
    report] on the saved file are the same text. {!render} reads
    [deflection-profile/1] documents too. *)

module Json = Deflection_telemetry.Json
module Policy = Deflection_policy.Policy
module Annot = Deflection_annot.Annot

(** {2 Disassembly windows} *)

type window_line = {
  w_addr : int;
  w_bytes : string;  (** hex bytes, or [""] when undecodable *)
  w_text : string;  (** rendered instruction or a [<bad opcode>] note *)
  w_fault : bool;  (** the line containing the site of interest *)
}

val disasm_window :
  ?before:int -> ?after:int -> code:bytes -> base:int -> pc:int -> unit -> window_line list
(** Decode [code] (whose first byte lives at address [base]) linearly and
    return up to [before] (default 8) instructions preceding [pc], the
    instruction at [pc], and up to [after] (default 8) following it.
    Undecodable bytes become single-byte [<bad opcode>] lines, so the
    window survives garbage. *)

(** {2 Crash reports} *)

type region = { r_name : string; r_lo : int; r_hi : int; r_perm : string }

type crash = {
  kind : string;  (** ["policy-abort"], ["mem-fault"], ["bad-decode"]... *)
  detail : string;  (** one-line human description of the exit *)
  policy : Policy.t option;  (** the violated policy clause, when known *)
  abort_stub : string option;  (** the annotation abort stub that fired *)
  pc : int;  (** faulting / aborting program counter *)
  instr_bytes : string;  (** hex bytes of the faulting instruction *)
  window : window_line list;
  regs : (string * int64) list;  (** full register file at the fault *)
  regions : region list;  (** enclave memory map + page permissions *)
  events : Flight_recorder.entry list;  (** flight-recorder tail, oldest first *)
  events_dropped : int;
  cycles : int;
  instructions : int;
  aexes : int;
  ocalls : int;
  leaked_bytes : int;
}

val policy_of_abort : enforced:Policy.Set.t -> Annot.abort_reason -> Policy.t
(** The policy clause an abort stub enforces. The materialized store
    bounds check is the intersection of the enforced store policies, so a
    [Store] abort is attributed to the base clause actually in force
    (P1 when enforced, else P3, else P4). *)

val crash_to_json : crash -> Json.t
(** The [deflection-forensics/1] document, [kind] ["crash"]. *)

(** {2 Rejection verdicts} *)

type verdict = {
  v_pass : string;  (** ["symbols"] | ["scan"] | ["cfg"] *)
  v_offset : int;  (** offending byte offset into the text section *)
  v_reason : string;
  v_window : window_line list;  (** decoded around the offending offset *)
  v_evidence : string list;  (** e.g. mid-instruction-target analysis *)
}

val explain_rejection : ?text:bytes -> pass:string -> offset:int -> reason:string -> unit -> verdict
(** Rebuild the evidence for a verifier rejection. When [text] (the raw
    text section submitted for verification) is available the verdict
    gains a disassembly window around [offset] and an analysis of whether
    the offset lands mid-instruction in the linear decode — the signature
    of overlapping-decode and mid-instruction-target attacks. *)

val verdict_to_json : verdict -> Json.t
(** The [deflection-forensics/1] document, [kind] ["rejection"]. *)

(** {2 Rendering saved documents} *)

val render : Json.t -> (string, string) result
(** Pretty-print a [deflection-forensics/1] (crash or rejection) or
    [deflection-profile/1] document, fresh or saved. [Error] explains an
    unrecognized or malformed document. *)
