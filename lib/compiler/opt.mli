(** Optimization passes of the untrusted code generator.

    Two stages, mirroring where LLVM would do the same work:

    - {!fold_program}: source-level constant folding and branch pruning
      (constant arithmetic, [if]/[while]/[?:] with constant conditions,
      algebraic identities, double negation);
    - {!peephole}: a window pass over the emitted assembly (self-moves,
      push/pop pairs into register moves, jumps to the next instruction,
      additions of zero).

    Both passes are semantics-preserving — the test suite checks outputs
    of optimized and unoptimized builds against each other — and both run
    {e before} instrumentation, so the verifier sees only the final code. *)

val fold_program : Ast.program -> Ast.program

val fold_expr : Ast.expr -> Ast.expr
(** Exposed for tests. *)

val peephole : Deflection_isa.Asm.item list -> Deflection_isa.Asm.item list
