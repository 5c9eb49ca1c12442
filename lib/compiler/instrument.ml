module Isa = Deflection_isa.Isa
module Asm = Deflection_isa.Asm
module Annot = Deflection_annot.Annot
module Policy = Deflection_policy.Policy
open Isa

type options = { policies : Policy.Set.t; ssa_q : int }

let stub_symbols =
  (Annot.start_symbol :: List.map Annot.abort_symbol Annot.all_abort_reasons)
  @ [ Annot.aex_handler_symbol ]

(* Flag producers: an SSA check may not be inserted while their flags are
   still consumable by a later Jcc. *)
let sets_live_flags = function
  | Cmp _ | Test _ | Fcmp _ -> true
  | Nop | Hlt | Mov _ | Lea _ | Push _ | Pop _ | Binop _ | Unop _ | Shift _ | Idiv _
  | Jmp _ | Jcc _ | Call _ | JmpInd _ | CallInd _ | Ret | Ocall _ | Fbin _
  | Cvtsi2sd _ | Cvttsd2si _ | Fsqrt _ ->
    false

type state = {
  opts : options;
  mutable counter : int;  (** label generator for template-internal labels *)
  mutable out : Asm.item list;  (** reversed *)
  mutable since_check : int;  (** instructions since the last SSA check *)
  mutable last_was_flag_producer : bool;
}

let fresh st () =
  st.counter <- st.counter + 1;
  Printf.sprintf ".Lannot%d" st.counter

let push_items st items = List.iter (fun it -> st.out <- it :: st.out) items
let push_ins st i = st.out <- Asm.Ins i :: st.out

let has p st = Policy.Set.mem p st.opts.policies

let emit_ssa_check st =
  push_items st (Annot.emit ~fresh_label:(fresh st) Annot.ssa_template);
  st.since_check <- 0

(* Insert an SSA check if the straight-line budget is exhausted and we are
   at a flag-dead point with respect to the upcoming instruction. *)
let maybe_ssa_check st upcoming =
  if
    has Policy.P6 st
    && st.since_check >= st.opts.ssa_q
    && (not st.last_was_flag_producer)
    && (match upcoming with Jcc _ -> false | _ -> true)
  then emit_ssa_check st

let instrument_store st (i : instr) =
  match maystore i with
  | Some m when has Policy.P1 st ->
    let adjusted = Annot.adjust_mem_for_pushes m 2 in
    push_items st (Annot.emit ~fresh_label:(fresh st) (Annot.store_template adjusted));
    push_ins st i
  | Some _ | None -> push_ins st i

let instrument_instr st (i : instr) =
  maybe_ssa_check st i;
  (match i with
  | Ret when has Policy.P5 st ->
    (* the epilogue template ends with its own Ret *)
    push_items st (Annot.emit ~fresh_label:(fresh st) Annot.epilogue_template)
  | JmpInd op when has Policy.P5 st ->
    (match op with
    | Reg r when r = Annot.cfi_target_reg -> ()
    | Reg _ | Mem _ | Imm _ | Sym _ -> push_ins st (Mov (Reg Annot.cfi_target_reg, op)));
    push_items st (Annot.emit ~fresh_label:(fresh st) Annot.cfi_template);
    push_ins st (JmpInd (Reg Annot.cfi_target_reg))
  | CallInd op when has Policy.P5 st ->
    (match op with
    | Reg r when r = Annot.cfi_target_reg -> ()
    | Reg _ | Mem _ | Imm _ | Sym _ -> push_ins st (Mov (Reg Annot.cfi_target_reg, op)));
    push_items st (Annot.emit ~fresh_label:(fresh st) Annot.cfi_template);
    push_ins st (CallInd (Reg Annot.cfi_target_reg))
  | Nop | Hlt | Mov _ | Lea _ | Push _ | Pop _ | Binop _ | Unop _ | Shift _ | Idiv _
  | Cmp _ | Test _ | Jmp _ | Jcc _ | Call _ | JmpInd _ | CallInd _ | Ret | Ocall _
  | Fbin _ | Fcmp _ | Cvtsi2sd _ | Cvttsd2si _ | Fsqrt _ ->
    instrument_store st i);
  (* P2: range-check RSP after any explicit modification *)
  if writes_rsp i && has Policy.P2 st then
    push_items st (Annot.emit ~fresh_label:(fresh st) Annot.rsp_template);
  st.since_check <- st.since_check + 1;
  st.last_was_flag_producer <- sets_live_flags i

(* Labels that some later branch jumps back to: loop heads. Cycles in the
   control-flow graph must pass an SSA inspection, so these (plus function
   entries) are where P6 places its mandatory checks; straight-line runs
   are covered by the q-counter. *)
let backward_targets items =
  let positions = Hashtbl.create 64 in
  List.iteri
    (fun idx item -> match item with Asm.Label l -> Hashtbl.replace positions l idx | Asm.Ins _ -> ())
    items;
  let back = Hashtbl.create 64 in
  List.iteri
    (fun idx item ->
      let record l =
        match Hashtbl.find_opt positions l with
        | Some lidx when lidx <= idx -> Hashtbl.replace back l ()
        | Some _ | None -> ()
      in
      match item with
      | Asm.Ins (Jmp (Lab l)) | Asm.Ins (Jcc (_, Lab l)) -> record l
      | Asm.Ins _ | Asm.Label _ -> ())
    items;
  back

let run opts ~fun_symbols ~entry items =
  let st =
    { opts; counter = 0; out = []; since_check = 0; last_was_flag_producer = false }
  in
  let fun_set = List.fold_left (fun acc s -> s :: acc) [] fun_symbols in
  let back = backward_targets items in
  push_items st (Annot.start_items ~entry);
  List.iter
    (fun item ->
      match item with
      | Asm.Label l ->
        st.out <- item :: st.out;
        st.last_was_flag_producer <- false;
        if List.mem l fun_set && has Policy.P5 st then
          push_items st (Annot.emit ~fresh_label:(fresh st) Annot.prologue_template);
        (* loop heads and function entries get mandatory inspections *)
        if has Policy.P6 st && (Hashtbl.mem back l || List.mem l fun_set) then
          emit_ssa_check st
      | Asm.Ins i -> instrument_instr st i)
    items;
  (* runtime stubs *)
  List.iter (fun r -> push_items st (Annot.abort_stub_items r)) Annot.all_abort_reasons;
  push_items st Annot.aex_handler_items;
  List.rev st.out
