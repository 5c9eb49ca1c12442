(** The target instruction set.

    A compact x86-64-flavoured ISA with a variable-length binary encoding.
    It stands in for the x86 binaries of the paper (see DESIGN.md): it has
    the properties the paper's verification problem depends on — explicit
    memory operands, a stack pointer that can be moved arbitrarily, indirect
    calls/jumps, RET, and a variable-length encoding in which byte streams
    can decode differently at different offsets (so recursive-descent
    disassembly and "no branch into the middle of an annotation" checks are
    meaningful). *)

(** General-purpose registers. [RSP] is the stack pointer (P2 guards writes
    to it); [RBP] is the conventional frame pointer. *)
type reg =
  | RAX | RBX | RCX | RDX | RSI | RDI | RBP | RSP
  | R8 | R9 | R10 | R11 | R12 | R13 | R14 | R15

val reg_index : reg -> int
val reg_of_index : int -> reg option
val all_regs : reg array
val pp_reg : Format.formatter -> reg -> unit

(** Branch conditions (flag predicates). *)
type cond = E | NE | L | LE | G | GE | B | BE | A | AE | S | NS

val cond_index : cond -> int
val cond_of_index : int -> cond option
val pp_cond : Format.formatter -> cond -> unit

(** [base + index*scale + disp] memory operand. [scale] ∈ {1,2,4,8}. *)
type mem = { base : reg option; index : reg option; scale : int; disp : int64 }

val mem_of_reg : ?disp:int64 -> reg -> mem
val pp_mem : Format.formatter -> mem -> unit

type operand =
  | Reg of reg
  | Imm of int64
  | Mem of mem
  | Sym of string
      (** Absolute address of a symbol; assembles to a 64-bit immediate of 0
          plus a relocation entry resolved by the in-enclave loader. *)

val pp_operand : Format.formatter -> operand -> unit

type binop = Add | Sub | And | Or | Xor | Imul
type shiftop = Shl | Shr | Sar
type unop = Neg | Not | Inc | Dec
type fbinop = FAdd | FSub | FMul | FDiv

(** Direct control-flow target: a label before assembly, a relative byte
    displacement (from the end of the instruction) after decoding. *)
type target = Lab of string | Rel of int

type instr =
  | Nop
  | Hlt  (** terminate: normal exit when RAX=0 convention, else abort code *)
  | Mov of operand * operand  (** dst, src; mem-to-mem is invalid *)
  | Lea of reg * mem
  | Push of operand
  | Pop of reg
  | Binop of binop * operand * operand  (** dst, src *)
  | Unop of unop * operand
  | Shift of shiftop * operand * operand  (** dst, count (Imm or Reg RCX) *)
  | Idiv of operand  (** RAX <- RAX / src, RDX <- RAX mod src *)
  | Cmp of operand * operand
  | Test of operand * operand
  | Jmp of target
  | Jcc of cond * target
  | Call of target
  | JmpInd of operand  (** indirect jump — mediated under P5 *)
  | CallInd of operand  (** indirect call — mediated under P5 *)
  | Ret
  | Ocall of int  (** enclave exit to host function [n] — mediated under P0 *)
  | Fbin of fbinop * reg * operand
      (** float arithmetic on IEEE-754 bit patterns held in GPRs *)
  | Fcmp of reg * operand  (** float compare, sets flags *)
  | Cvtsi2sd of reg * operand  (** int -> float bits *)
  | Cvttsd2si of reg * operand  (** float bits -> truncated int *)
  | Fsqrt of reg * operand

val pp_instr : Format.formatter -> instr -> unit
val instr_to_string : instr -> string

val maystore : instr -> mem option
(** The destination memory operand, when the instruction writes memory
    explicitly (the paper's [MachineInstr::mayStore()]); [Push] is an
    implicit store and is NOT reported here. *)

val writes_rsp : instr -> bool
(** The instruction explicitly alters RSP other than by push/pop/call/ret
    (the paper's P2 trigger set). *)

val writes_reg : reg -> instr -> bool
(** The instruction writes the given register explicitly (used by the
    verifier to police the reserved shadow-stack register). *)
