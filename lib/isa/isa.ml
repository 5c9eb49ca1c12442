type reg =
  | RAX | RBX | RCX | RDX | RSI | RDI | RBP | RSP
  | R8 | R9 | R10 | R11 | R12 | R13 | R14 | R15

let all_regs =
  [| RAX; RBX; RCX; RDX; RSI; RDI; RBP; RSP; R8; R9; R10; R11; R12; R13; R14; R15 |]

let reg_index = function
  | RAX -> 0 | RBX -> 1 | RCX -> 2 | RDX -> 3
  | RSI -> 4 | RDI -> 5 | RBP -> 6 | RSP -> 7
  | R8 -> 8 | R9 -> 9 | R10 -> 10 | R11 -> 11
  | R12 -> 12 | R13 -> 13 | R14 -> 14 | R15 -> 15

let reg_of_index i = if i >= 0 && i < 16 then Some all_regs.(i) else None

let reg_name = function
  | RAX -> "rax" | RBX -> "rbx" | RCX -> "rcx" | RDX -> "rdx"
  | RSI -> "rsi" | RDI -> "rdi" | RBP -> "rbp" | RSP -> "rsp"
  | R8 -> "r8" | R9 -> "r9" | R10 -> "r10" | R11 -> "r11"
  | R12 -> "r12" | R13 -> "r13" | R14 -> "r14" | R15 -> "r15"

let pp_reg fmt r = Format.pp_print_string fmt (reg_name r)

type cond = E | NE | L | LE | G | GE | B | BE | A | AE | S | NS

let all_conds = [| E; NE; L; LE; G; GE; B; BE; A; AE; S; NS |]

let cond_index = function
  | E -> 0 | NE -> 1 | L -> 2 | LE -> 3 | G -> 4 | GE -> 5
  | B -> 6 | BE -> 7 | A -> 8 | AE -> 9 | S -> 10 | NS -> 11

let cond_of_index i = if i >= 0 && i < 12 then Some all_conds.(i) else None

let cond_name = function
  | E -> "e" | NE -> "ne" | L -> "l" | LE -> "le" | G -> "g" | GE -> "ge"
  | B -> "b" | BE -> "be" | A -> "a" | AE -> "ae" | S -> "s" | NS -> "ns"

let pp_cond fmt c = Format.pp_print_string fmt (cond_name c)

type mem = { base : reg option; index : reg option; scale : int; disp : int64 }

let mem_of_reg ?(disp = 0L) r = { base = Some r; index = None; scale = 1; disp }

let pp_mem fmt m =
  let parts = ref [] in
  (match m.index with
  | Some r when m.scale <> 1 -> parts := Printf.sprintf "%s*%d" (reg_name r) m.scale :: !parts
  | Some r -> parts := reg_name r :: !parts
  | None -> ());
  (match m.base with Some r -> parts := reg_name r :: !parts | None -> ());
  let body = String.concat "+" !parts in
  if Int64.compare m.disp 0L = 0 && body <> "" then Format.fprintf fmt "[%s]" body
  else if body = "" then Format.fprintf fmt "[0x%Lx]" m.disp
  else if Int64.compare m.disp 0L > 0 then Format.fprintf fmt "[%s+0x%Lx]" body m.disp
  else Format.fprintf fmt "[%s-0x%Lx]" body (Int64.neg m.disp)

type operand = Reg of reg | Imm of int64 | Mem of mem | Sym of string

let pp_operand fmt = function
  | Reg r -> pp_reg fmt r
  | Imm v -> Format.fprintf fmt "0x%Lx" v
  | Mem m -> pp_mem fmt m
  | Sym s -> Format.fprintf fmt "$%s" s

type binop = Add | Sub | And | Or | Xor | Imul
type shiftop = Shl | Shr | Sar
type unop = Neg | Not | Inc | Dec
type fbinop = FAdd | FSub | FMul | FDiv
type target = Lab of string | Rel of int

type instr =
  | Nop
  | Hlt
  | Mov of operand * operand
  | Lea of reg * mem
  | Push of operand
  | Pop of reg
  | Binop of binop * operand * operand
  | Unop of unop * operand
  | Shift of shiftop * operand * operand
  | Idiv of operand
  | Cmp of operand * operand
  | Test of operand * operand
  | Jmp of target
  | Jcc of cond * target
  | Call of target
  | JmpInd of operand
  | CallInd of operand
  | Ret
  | Ocall of int
  | Fbin of fbinop * reg * operand
  | Fcmp of reg * operand
  | Cvtsi2sd of reg * operand
  | Cvttsd2si of reg * operand
  | Fsqrt of reg * operand

let binop_name = function
  | Add -> "add" | Sub -> "sub" | And -> "and"
  | Or -> "or" | Xor -> "xor" | Imul -> "imul"

let shiftop_name = function Shl -> "shl" | Shr -> "shr" | Sar -> "sar"
let unop_name = function Neg -> "neg" | Not -> "not" | Inc -> "inc" | Dec -> "dec"
let fbinop_name = function FAdd -> "fadd" | FSub -> "fsub" | FMul -> "fmul" | FDiv -> "fdiv"

let pp_target fmt = function
  | Lab s -> Format.pp_print_string fmt s
  | Rel d -> Format.fprintf fmt ".%+d" d

let pp_instr fmt = function
  | Nop -> Format.pp_print_string fmt "nop"
  | Hlt -> Format.pp_print_string fmt "hlt"
  | Mov (d, s) -> Format.fprintf fmt "mov %a, %a" pp_operand d pp_operand s
  | Lea (r, m) -> Format.fprintf fmt "lea %a, %a" pp_reg r pp_mem m
  | Push o -> Format.fprintf fmt "push %a" pp_operand o
  | Pop r -> Format.fprintf fmt "pop %a" pp_reg r
  | Binop (op, d, s) ->
    Format.fprintf fmt "%s %a, %a" (binop_name op) pp_operand d pp_operand s
  | Unop (op, o) -> Format.fprintf fmt "%s %a" (unop_name op) pp_operand o
  | Shift (op, d, s) ->
    Format.fprintf fmt "%s %a, %a" (shiftop_name op) pp_operand d pp_operand s
  | Idiv o -> Format.fprintf fmt "idiv %a" pp_operand o
  | Cmp (a, b) -> Format.fprintf fmt "cmp %a, %a" pp_operand a pp_operand b
  | Test (a, b) -> Format.fprintf fmt "test %a, %a" pp_operand a pp_operand b
  | Jmp t -> Format.fprintf fmt "jmp %a" pp_target t
  | Jcc (c, t) -> Format.fprintf fmt "j%s %a" (cond_name c) pp_target t
  | Call t -> Format.fprintf fmt "call %a" pp_target t
  | JmpInd o -> Format.fprintf fmt "jmp *%a" pp_operand o
  | CallInd o -> Format.fprintf fmt "call *%a" pp_operand o
  | Ret -> Format.pp_print_string fmt "ret"
  | Ocall n -> Format.fprintf fmt "ocall %d" n
  | Fbin (op, r, o) -> Format.fprintf fmt "%s %a, %a" (fbinop_name op) pp_reg r pp_operand o
  | Fcmp (r, o) -> Format.fprintf fmt "fcmp %a, %a" pp_reg r pp_operand o
  | Cvtsi2sd (r, o) -> Format.fprintf fmt "cvtsi2sd %a, %a" pp_reg r pp_operand o
  | Cvttsd2si (r, o) -> Format.fprintf fmt "cvttsd2si %a, %a" pp_reg r pp_operand o
  | Fsqrt (r, o) -> Format.fprintf fmt "fsqrt %a, %a" pp_reg r pp_operand o

let instr_to_string i = Format.asprintf "%a" pp_instr i

let maystore = function
  | Mov (Mem m, _) -> Some m
  | Binop (_, Mem m, _) -> Some m
  | Unop (_, Mem m) -> Some m
  | Shift (_, Mem m, _) -> Some m
  | Nop | Hlt | Mov ((Reg _ | Imm _ | Sym _), _) | Lea _ | Push _ | Pop _
  | Binop (_, (Reg _ | Imm _ | Sym _), _) | Unop (_, (Reg _ | Imm _ | Sym _))
  | Shift (_, (Reg _ | Imm _ | Sym _), _)
  | Idiv _ | Cmp _ | Test _ | Jmp _ | Jcc _ | Call _ | JmpInd _ | CallInd _
  | Ret | Ocall _ | Fbin _ | Fcmp _ | Cvtsi2sd _ | Cvttsd2si _ | Fsqrt _ ->
    None

let writes_rsp = function
  | Mov (Reg RSP, _) | Lea (RSP, _) | Pop RSP
  | Binop (_, Reg RSP, _) | Unop (_, Reg RSP) | Shift (_, Reg RSP, _) ->
    true
  | Cvtsi2sd (RSP, _) | Cvttsd2si (RSP, _) | Fbin (_, RSP, _) | Fsqrt (RSP, _) -> true
  | Nop | Hlt | Mov _ | Lea _ | Push _ | Pop _ | Binop _ | Unop _ | Shift _
  | Idiv _ | Cmp _ | Test _ | Jmp _ | Jcc _ | Call _ | JmpInd _ | CallInd _
  | Ret | Ocall _ | Fbin _ | Fcmp _ | Cvtsi2sd _ | Cvttsd2si _ | Fsqrt _ ->
    false

let writes_reg r = function
  | Mov (Reg d, _) | Lea (d, _) | Pop d
  | Binop (_, Reg d, _) | Unop (_, Reg d) | Shift (_, Reg d, _)
  | Fbin (_, d, _) | Cvtsi2sd (d, _) | Cvttsd2si (d, _) | Fsqrt (d, _) ->
    d = r
  | Idiv _ -> r = RAX || r = RDX
  | Ocall _ -> r = RAX (* result register written by the wrapper *)
  | Nop | Hlt | Mov _ | Push _ | Binop _ | Unop _ | Shift _ | Cmp _ | Test _
  | Jmp _ | Jcc _ | Call _ | JmpInd _ | CallInd _ | Ret | Fcmp _ ->
    false
