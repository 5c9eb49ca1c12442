module Asm = Deflection_isa.Asm
module Isa = Deflection_isa.Isa
open Ast

(* ------------------------------------------------------------------ *)
(* Source-level constant folding *)

let is_zero e = match e.e with IntLit 0L -> true | _ -> false
let is_one e = match e.e with IntLit 1L -> true | _ -> false

let int_binop op a b =
  match op with
  | Add -> Some (Int64.add a b)
  | Sub -> Some (Int64.sub a b)
  | Mul -> Some (Int64.mul a b)
  (* never fold a division that traps at runtime (zero divisor, or the
     INT64_MIN / -1 overflow that x86 idiv faults on): folding would turn
     a faulting program into a silently-wrapping one *)
  | Div ->
    if Int64.equal b 0L || (Int64.equal a Int64.min_int && Int64.equal b (-1L)) then None
    else Some (Int64.div a b)
  | Mod ->
    if Int64.equal b 0L || (Int64.equal a Int64.min_int && Int64.equal b (-1L)) then None
    else Some (Int64.rem a b)
  | Eq -> Some (if Int64.equal a b then 1L else 0L)
  | Neq -> Some (if Int64.equal a b then 0L else 1L)
  | Lt -> Some (if Int64.compare a b < 0 then 1L else 0L)
  | Le -> Some (if Int64.compare a b <= 0 then 1L else 0L)
  | Gt -> Some (if Int64.compare a b > 0 then 1L else 0L)
  | Ge -> Some (if Int64.compare a b >= 0 then 1L else 0L)
  | BitAnd -> Some (Int64.logand a b)
  | BitOr -> Some (Int64.logor a b)
  | BitXor -> Some (Int64.logxor a b)
  | Shl -> Some (Int64.shift_left a (Int64.to_int (Int64.logand b 63L)))
  | Shr -> Some (Int64.shift_right a (Int64.to_int (Int64.logand b 63L)))
  | LogAnd -> Some (if (not (Int64.equal a 0L)) && not (Int64.equal b 0L) then 1L else 0L)
  | LogOr -> Some (if Int64.equal a 0L && Int64.equal b 0L then 0L else 1L)

let float_binop op a b =
  match op with
  | Add -> Some (FloatLit (a +. b))
  | Sub -> Some (FloatLit (a -. b))
  | Mul -> Some (FloatLit (a *. b))
  | Div -> Some (FloatLit (a /. b))
  | Eq -> Some (IntLit (if a = b then 1L else 0L))
  | Neq -> Some (IntLit (if a <> b then 1L else 0L))
  | Lt -> Some (IntLit (if a < b then 1L else 0L))
  | Le -> Some (IntLit (if a <= b then 1L else 0L))
  | Gt -> Some (IntLit (if a > b then 1L else 0L))
  | Ge -> Some (IntLit (if a >= b then 1L else 0L))
  | Mod | BitAnd | BitOr | BitXor | Shl | Shr | LogAnd | LogOr -> None

(* An expression is pure when evaluating it has no side effects; dropping
   a pure expression is safe (used when pruning the unused branch of a
   folded &&/||/?: only when it is pure). *)
let rec pure e =
  match e.e with
  | IntLit _ | FloatLit _ | Var _ | AddrOfFun _ -> true
  | Index (_, i) -> pure i
  | Unary (_, a) -> pure a
  | Binary ((Div | Mod), _, _) -> false (* may trap on zero *)
  | Binary (_, a, b) -> pure a && pure b
  | Cond (c, a, b) -> pure c && pure a && pure b
  | Call _ | Assign _ -> false

let rec fold_expr (e : expr) : expr =
  let mk node = { e with e = node } in
  match e.e with
  | IntLit _ | FloatLit _ | Var _ | AddrOfFun _ -> e
  | Index (a, i) -> mk (Index (a, fold_expr i))
  | Call (f, args) -> mk (Call (f, List.map fold_expr args))
  | Unary (op, a) ->
    let a = fold_expr a in
    (match (op, a.e) with
    | Neg, IntLit v -> mk (IntLit (Int64.neg v))
    | Neg, FloatLit v -> mk (FloatLit (-.v))
    | LogNot, IntLit v -> mk (IntLit (if Int64.equal v 0L then 1L else 0L))
    | BitNot, IntLit v -> mk (IntLit (Int64.lognot v))
    | Neg, Unary (Neg, inner) -> inner
    | LogNot, Unary (LogNot, { e = Unary (LogNot, inner); _ }) -> mk (Unary (LogNot, inner))
    | _ -> mk (Unary (op, a)))
  | Binary (op, a, b) ->
    let a = fold_expr a and b = fold_expr b in
    (match (a.e, b.e) with
    | IntLit va, IntLit vb ->
      (match int_binop op va vb with Some v -> mk (IntLit v) | None -> mk (Binary (op, a, b)))
    | FloatLit va, FloatLit vb ->
      (match float_binop op va vb with Some n -> mk n | None -> mk (Binary (op, a, b)))
    | _ ->
      (* algebraic identities, applied only when the discarded side is pure *)
      let default () = mk (Binary (op, a, b)) in
      (match op with
      | Add when is_zero b -> a
      | Add when is_zero a && pure a -> b
      | Sub when is_zero b -> a
      | Mul when is_one b -> a
      | Mul when is_one a -> b
      | Div when is_one b -> a
      | LogAnd when is_zero a -> mk (IntLit 0L) (* b never evaluates anyway *)
      | LogOr -> (
        match a.e with
        | IntLit v when not (Int64.equal v 0L) -> mk (IntLit 1L)
        | _ -> default ())
      | _ -> default ()))
  | Assign (lv, rhs) ->
    let lv = match lv with Lvar v -> Lvar v | Lindex (a, i) -> Lindex (a, fold_expr i) in
    mk (Assign (lv, fold_expr rhs))
  | Cond (c, a, b) ->
    let c = fold_expr c and a = fold_expr a and b = fold_expr b in
    (match c.e with
    | IntLit v -> if Int64.equal v 0L then b else a
    | _ -> mk (Cond (c, a, b)))

let rec fold_stmt (st : stmt) : stmt list =
  let mk node = { st with s = node } in
  match st.s with
  | Decl (ty, n, arr, init) -> [ mk (Decl (ty, n, arr, Option.map fold_expr init)) ]
  | Expr e -> [ mk (Expr (fold_expr e)) ]
  | If (c, a, b) ->
    let c = fold_expr c in
    (match c.e with
    | IntLit v ->
      (* keep declarations visible: MiniC locals are function-scoped, so a
         pruned branch may still declare names used elsewhere; we keep the
         branch if it contains declarations *)
      let chosen = if Int64.equal v 0L then b else a in
      let dropped = if Int64.equal v 0L then a else b in
      if List.exists contains_decl dropped then [ mk (If (c, a, b)) ]
      else List.concat_map fold_stmt chosen
    | _ -> [ mk (If (c, List.concat_map fold_stmt a, List.concat_map fold_stmt b)) ])
  | While (c, body) ->
    let c = fold_expr c in
    (match c.e with
    | IntLit 0L when not (List.exists contains_decl body) -> []
    | _ -> [ mk (While (c, List.concat_map fold_stmt body)) ])
  | For (i, c, s, body) ->
    [
      mk
        (For
           ( Option.map (fun st' -> List.hd (fold_stmt st')) i,
             Option.map fold_expr c,
             Option.map (fun st' -> List.hd (fold_stmt st')) s,
             List.concat_map fold_stmt body ));
    ]
  | Return e -> [ mk (Return (Option.map fold_expr e)) ]
  | Break | Continue -> [ st ]

and contains_decl (st : stmt) =
  match st.s with
  | Decl _ -> true
  | If (_, a, b) -> List.exists contains_decl a || List.exists contains_decl b
  | While (_, b) -> List.exists contains_decl b
  | For (i, _, s, b) ->
    Option.fold ~none:false ~some:contains_decl i
    || Option.fold ~none:false ~some:contains_decl s
    || List.exists contains_decl b
  | Expr _ | Return _ | Break | Continue -> false

let fold_program (p : program) : program =
  {
    p with
    funcs = List.map (fun f -> { f with body = List.concat_map fold_stmt f.body }) p.funcs;
  }

(* ------------------------------------------------------------------ *)
(* Peephole over emitted items. Windows never cross labels (a label is a
   potential join point, so adjacency cannot be assumed through one). *)

let rec peephole_items (items : Asm.item list) : Asm.item list * int =
  match items with
  (* mov r, r  ->  (nothing) *)
  | Asm.Ins (Isa.Mov (Isa.Reg a, Isa.Reg b)) :: rest when a = b ->
    let out, n = peephole_items rest in
    (out, n + 1)
  (* add/sub r, 0 -> (nothing): NOTE both set flags, but our codegen never
     consumes flags produced by an add/sub of an immediate zero *)
  | Asm.Ins (Isa.Binop ((Isa.Add | Isa.Sub), Isa.Reg _, Isa.Imm 0L)) :: rest ->
    let out, n = peephole_items rest in
    (out, n + 1)
  (* push x; pop r -> mov r, x *)
  | Asm.Ins (Isa.Push src) :: Asm.Ins (Isa.Pop dst) :: rest -> (
    match src with
    | Isa.Reg s when s = dst ->
      let out, n = peephole_items rest in
      (out, n + 2)
    | Isa.Reg _ | Isa.Imm _ ->
      let out, n = peephole_items rest in
      (Asm.Ins (Isa.Mov (Isa.Reg dst, src)) :: out, n + 1)
    | Isa.Mem _ | Isa.Sym _ ->
      (* a memory push would change where the load happens; leave it *)
      let out, n = peephole_items (Asm.Ins (Isa.Pop dst) :: rest) in
      (Asm.Ins (Isa.Push src) :: out, n))
  (* jmp L; label L  ->  label L *)
  | Asm.Ins (Isa.Jmp (Isa.Lab l)) :: (Asm.Label l' :: _ as rest) when l = l' ->
    let out, n = peephole_items rest in
    (out, n + 1)
  | item :: rest ->
    let out, n = peephole_items rest in
    (item :: out, n)
  | [] -> ([], 0)

(* Iterate to a fixpoint: a removed jump can expose a new pair. *)
let rec peephole items =
  let out, n = peephole_items items in
  if n = 0 then out else peephole out
