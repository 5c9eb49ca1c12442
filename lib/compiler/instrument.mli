(** The assembly-level instrumentation passes of the code generator
    (paper Section V-A, Figure 4). Controlled by policy switches:

    - P1 (with P3/P4 selecting the rewritten bounds): a Figure-5 bounds
      check before every explicit memory store;
    - P2: a register-free RSP range check after every instruction that
      explicitly writes RSP;
    - P5: shadow-stack prologue at every function entry, verified epilogue
      replacing every RET, and a branch-table scan before every indirect
      call/jump (target normalized into R10);
    - P6: an SSA-marker inspection at every basic-block entry and at least
      every [q] instructions inside straight-line runs (placed only at
      flag-dead points).

    The pass also appends the runtime stubs every instrumented object
    carries: the abort stubs, the AEX handler and the [__start] shim. *)

module Asm = Deflection_isa.Asm

type options = {
  policies : Deflection_policy.Policy.Set.t;
  ssa_q : int;  (** marker-inspection period for P6 *)
}

val run : options -> fun_symbols:string list -> entry:string -> Asm.item list -> Asm.item list
(** [run opts ~fun_symbols ~entry items] returns the instrumented item
    stream: [__start] shim, instrumented functions, runtime stubs. *)

val stub_symbols : string list
(** The symbols the pass appends ([__start], abort stubs, AEX handler). *)
