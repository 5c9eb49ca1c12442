type item = Label of string | Ins of Isa.instr
type reloc = { at : int; symbol : string }

type assembled = {
  code : bytes;
  label_offsets : (string * int) list;
  relocs : reloc list;
  instr_offsets : int list;
}

exception Undefined_label of string
exception Duplicate_label of string

(* Replace label targets with dummy displacements so lengths are computable
   in pass 1 (rel32 is fixed-size, so lengths never change in pass 2). *)
let strip_labels (i : Isa.instr) : Isa.instr =
  match i with
  | Jmp (Lab _) -> Jmp (Rel 0)
  | Jcc (c, Lab _) -> Jcc (c, Rel 0)
  | Call (Lab _) -> Call (Rel 0)
  | other -> other

let assemble items =
  (* Pass 1: label offsets. *)
  let table = Hashtbl.create 64 in
  let off = ref 0 in
  let instr_offsets = ref [] in
  List.iter
    (fun item ->
      match item with
      | Label l ->
        if Hashtbl.mem table l then raise (Duplicate_label l);
        Hashtbl.add table l !off
      | Ins i ->
        instr_offsets := !off :: !instr_offsets;
        off := !off + Codec.encoded_length (strip_labels i))
    items;
  let find l = match Hashtbl.find_opt table l with Some o -> o | None -> raise (Undefined_label l) in
  (* Pass 2: encode with resolved displacements. *)
  let buf = Deflection_util.Bytebuf.create ~capacity:4096 () in
  let relocs = ref [] in
  List.iter
    (fun item ->
      match item with
      | Label _ -> ()
      | Ins i ->
        let start = Deflection_util.Bytebuf.length buf in
        let len = Codec.encoded_length (strip_labels i) in
        let resolve (t : Isa.target) : Isa.target =
          match t with Lab l -> Rel (find l - (start + len)) | Rel _ as r -> r
        in
        let resolved : Isa.instr =
          match i with
          | Jmp t -> Jmp (resolve t)
          | Jcc (c, t) -> Jcc (c, resolve t)
          | Call t -> Call (resolve t)
          | other -> other
        in
        let rs = Codec.encode buf resolved in
        List.iter (fun (field_off, symbol) -> relocs := { at = start + field_off; symbol } :: !relocs) rs)
    items;
  {
    code = Deflection_util.Bytebuf.contents buf;
    label_offsets = Hashtbl.fold (fun l o acc -> (l, o) :: acc) table [];
    relocs = List.rev !relocs;
    instr_offsets = List.rev !instr_offsets;
  }

let disassemble_all code =
  let n = Bytes.length code in
  let rec go off acc =
    if off >= n then List.rev acc
    else begin
      let i, len = Codec.decode code off in
      go (off + len) ((off, i) :: acc)
    end
  in
  go 0 []

