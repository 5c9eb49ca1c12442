(** Two-pass assembler: resolves labels to rel32 displacements and collects
    the relocation entries generated by [Sym] operands. This is the final
    stage of the untrusted code generator's pipeline. *)

type item = Label of string | Ins of Isa.instr

type reloc = { at : int; symbol : string }
(** [at]: byte offset in the code of an 8-byte absolute-address field to be
    filled with the address of [symbol] by the in-enclave loader. *)

type assembled = {
  code : bytes;
  label_offsets : (string * int) list;  (** every label's byte offset *)
  relocs : reloc list;
  instr_offsets : int list;  (** start offset of every instruction, in order *)
}

exception Undefined_label of string
exception Duplicate_label of string

val assemble : item list -> assembled

val disassemble_all : bytes -> (int * Isa.instr) list
(** Linear-sweep decode of a whole code buffer (offset, instruction) —
    a debugging aid; the verifier uses its own recursive-descent walk. *)
