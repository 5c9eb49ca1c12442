type kind =
  | Retired
  | Branch_taken
  | Branch_not_taken
  | Ocall
  | Ecall
  | Aex
  | Abort
  | Fault

let kind_code = function
  | Retired -> 0
  | Branch_taken -> 1
  | Branch_not_taken -> 2
  | Ocall -> 3
  | Ecall -> 4
  | Aex -> 5
  | Abort -> 6
  | Fault -> 7

let kind_of_code = function
  | 0 -> Retired
  | 1 -> Branch_taken
  | 2 -> Branch_not_taken
  | 3 -> Ocall
  | 4 -> Ecall
  | 5 -> Aex
  | 6 -> Abort
  | _ -> Fault

let kind_label = function
  | Retired -> "retired"
  | Branch_taken -> "branch-taken"
  | Branch_not_taken -> "branch-not-taken"
  | Ocall -> "ocall"
  | Ecall -> "ecall"
  | Aex -> "aex"
  | Abort -> "abort"
  | Fault -> "fault"

type entry = { seq : int; ekind : kind; pc : int; arg : int }

let pp_entry fmt e =
  match e.ekind with
  | Retired -> Format.fprintf fmt "[%d] retired pc=%#x" e.seq e.pc
  | Branch_taken -> Format.fprintf fmt "[%d] branch pc=%#x -> %#x (taken)" e.seq e.pc e.arg
  | Branch_not_taken ->
    Format.fprintf fmt "[%d] branch pc=%#x -> %#x (fall-through)" e.seq e.pc e.arg
  | Ocall -> Format.fprintf fmt "[%d] ocall %d at pc=%#x" e.seq e.arg e.pc
  | Ecall -> Format.fprintf fmt "[%d] ecall %d" e.seq e.arg
  | Aex -> Format.fprintf fmt "[%d] aex #%d at pc=%#x" e.seq e.arg e.pc
  | Abort -> Format.fprintf fmt "[%d] policy abort at pc=%#x (code %d)" e.seq e.pc e.arg
  | Fault -> Format.fprintf fmt "[%d] fault at pc=%#x" e.seq e.pc

(* Struct-of-arrays ring: recording is three int stores and two bumps, so
   a hot interpreter loop can leave the recorder attached without
   allocating. *)
type t = {
  on : bool;
  cap : int;
  kinds : int array;
  pcs : int array;
  args : int array;
  mutable next : int;  (* next write slot *)
  mutable stored : int;  (* total events ever recorded *)
}

let create ?(capacity = 512) () =
  if capacity <= 0 then invalid_arg "Flight_recorder.create: capacity must be positive";
  {
    on = true;
    cap = capacity;
    kinds = Array.make capacity 0;
    pcs = Array.make capacity 0;
    args = Array.make capacity 0;
    next = 0;
    stored = 0;
  }

let disabled =
  { on = false; cap = 0; kinds = [||]; pcs = [||]; args = [||]; next = 0; stored = 0 }

let enabled t = t.on

let record t kind ~pc ~arg =
  if t.on then begin
    let i = t.next in
    t.kinds.(i) <- kind_code kind;
    t.pcs.(i) <- pc;
    t.args.(i) <- arg;
    t.next <- (if i + 1 = t.cap then 0 else i + 1);
    t.stored <- t.stored + 1
  end

let recorded t = t.stored
let dropped t = if t.stored > t.cap then t.stored - t.cap else 0
let capacity t = t.cap

let entries t =
  if not t.on then []
  else begin
    let len = min t.stored t.cap in
    let first = if t.stored <= t.cap then 0 else t.next in
    let base_seq = t.stored - len in
    List.init len (fun i ->
        let slot = (first + i) mod t.cap in
        {
          seq = base_seq + i;
          ekind = kind_of_code t.kinds.(slot);
          pc = t.pcs.(slot);
          arg = t.args.(slot);
        })
  end
