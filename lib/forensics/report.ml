module Json = Deflection_telemetry.Json
module Policy = Deflection_policy.Policy
module Annot = Deflection_annot.Annot
module Isa = Deflection_isa.Isa
module Codec = Deflection_isa.Codec

(* ------------------------------------------------------------------ *)
(* Disassembly windows *)

type window_line = { w_addr : int; w_bytes : string; w_text : string; w_fault : bool }

let hex_bytes code off len =
  let b = Buffer.create (len * 3) in
  for i = 0 to len - 1 do
    if i > 0 then Buffer.add_char b ' ';
    Buffer.add_string b (Printf.sprintf "%02x" (Char.code (Bytes.get code (off + i))))
  done;
  Buffer.contents b

(* Linear decode of the whole buffer; undecodable bytes consume one byte
   each so the stream always makes progress. *)
let decode_stream code =
  let len = Bytes.length code in
  let lines = ref [] in
  let off = ref 0 in
  while !off < len do
    let o = !off in
    (match Codec.decode code o with
    | i, dlen ->
      lines := (o, dlen, Format.asprintf "%a" Isa.pp_instr i) :: !lines;
      off := o + dlen
    | exception Codec.Decode_error _ ->
      lines :=
        (o, 1, Printf.sprintf "<bad opcode 0x%02x>" (Char.code (Bytes.get code o))) :: !lines;
      off := o + 1)
  done;
  Array.of_list (List.rev !lines)

let disasm_window ?(before = 8) ?(after = 8) ~code ~base ~pc () =
  let len = Bytes.length code in
  let target = pc - base in
  if len = 0 || target < 0 || target >= len then []
  else begin
    let stream = decode_stream code in
    let idx = ref (-1) in
    Array.iteri (fun i (o, dlen, _) -> if o <= target && target < o + dlen then idx := i) stream;
    if !idx < 0 then []
    else begin
      let lo = max 0 (!idx - before) in
      let hi = min (Array.length stream - 1) (!idx + after) in
      List.init
        (hi - lo + 1)
        (fun k ->
          let i = lo + k in
          let o, dlen, text = stream.(i) in
          { w_addr = base + o; w_bytes = hex_bytes code o dlen; w_text = text; w_fault = i = !idx })
    end
  end

let window_to_json window =
  Json.List
    (List.map
       (fun l ->
         Json.Obj
           [
             ("addr", Json.Int l.w_addr);
             ("bytes", Json.Str l.w_bytes);
             ("text", Json.Str l.w_text);
             ("fault", Json.Bool l.w_fault);
           ])
       window)

(* ------------------------------------------------------------------ *)
(* Crash reports *)

type region = { r_name : string; r_lo : int; r_hi : int; r_perm : string }

type crash = {
  kind : string;
  detail : string;
  policy : Policy.t option;
  abort_stub : string option;
  pc : int;
  instr_bytes : string;
  window : window_line list;
  regs : (string * int64) list;
  regions : region list;
  events : Flight_recorder.entry list;
  events_dropped : int;
  cycles : int;
  instructions : int;
  aexes : int;
  ocalls : int;
  leaked_bytes : int;
}

let policy_of_abort ~enforced = function
  | Annot.Store ->
    if Policy.Set.mem Policy.P1 enforced then Policy.P1
    else if Policy.Set.mem Policy.P3 enforced then Policy.P3
    else Policy.P4
  | Annot.Rsp -> Policy.P2
  | Annot.Cfi | Annot.Shadow_stack -> Policy.P5
  | Annot.Aex_budget | Annot.Colocation -> Policy.P6

let event_to_json (e : Flight_recorder.entry) =
  Json.Obj
    [
      ("seq", Json.Int e.Flight_recorder.seq);
      ("kind", Json.Str (Flight_recorder.kind_label e.Flight_recorder.ekind));
      ("pc", Json.Int e.Flight_recorder.pc);
      ("arg", Json.Int e.Flight_recorder.arg);
    ]

let crash_to_json c =
  Json.Obj
    [
      ("schema", Json.Str "deflection-forensics/1");
      ("kind", Json.Str "crash");
      ("exit", Json.Str c.kind);
      ("detail", Json.Str c.detail);
      ( "policy",
        match c.policy with None -> Json.Null | Some p -> Json.Str (Policy.name p) );
      ( "abort_stub",
        match c.abort_stub with None -> Json.Null | Some s -> Json.Str s );
      ("pc", Json.Int c.pc);
      ("instr_bytes", Json.Str c.instr_bytes);
      ("window", window_to_json c.window);
      ("regs", Json.Obj (List.map (fun (n, v) -> (n, Json.Str (Printf.sprintf "0x%Lx" v))) c.regs));
      ( "regions",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("name", Json.Str r.r_name);
                   ("lo", Json.Int r.r_lo);
                   ("hi", Json.Int r.r_hi);
                   ("perm", Json.Str r.r_perm);
                 ])
             c.regions) );
      ("events", Json.List (List.map event_to_json c.events));
      ("events_dropped", Json.Int c.events_dropped);
      ( "stats",
        Json.Obj
          [
            ("cycles", Json.Int c.cycles);
            ("instructions", Json.Int c.instructions);
            ("aexes", Json.Int c.aexes);
            ("ocalls", Json.Int c.ocalls);
            ("leaked_bytes", Json.Int c.leaked_bytes);
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Rejection verdicts *)

type verdict = {
  v_pass : string;
  v_offset : int;
  v_reason : string;
  v_window : window_line list;
  v_evidence : string list;
}

let explain_rejection ?text ~pass ~offset ~reason () =
  match text with
  | None -> { v_pass = pass; v_offset = offset; v_reason = reason; v_window = []; v_evidence = [] }
  | Some code ->
    let len = Bytes.length code in
    let evidence = ref [] in
    let add e = evidence := e :: !evidence in
    if len = 0 then add "text section is empty"
    else if offset < 0 || offset >= len then
      add (Printf.sprintf "offset %#x lies outside the text section (0..%#x)" offset (len - 1))
    else begin
      (* where does the offset fall in the linear decode? *)
      let stream = decode_stream code in
      let container = ref None in
      Array.iter
        (fun (o, dlen, txt) -> if o <= offset && offset < o + dlen then container := Some (o, txt))
        stream;
      (match !container with
      | Some (o, _) when o = offset ->
        add (Printf.sprintf "offset %#x is an instruction boundary of the linear decode" offset)
      | Some (o, txt) ->
        add
          (Printf.sprintf
             "offset %#x falls %d byte%s inside the instruction at %#x (%s) — a mid-instruction \
              target or overlapping decode"
             offset (offset - o)
             (if offset - o = 1 then "" else "s")
             o txt)
      | None -> ());
      (match Codec.decode code offset with
      | i, dlen ->
        add
          (Printf.sprintf "bytes at %#x decode as: %s  (%s)" offset
             (Format.asprintf "%a" Isa.pp_instr i)
             (hex_bytes code offset dlen))
      | exception Codec.Decode_error _ ->
        add
          (Printf.sprintf "bytes at %#x do not decode (opcode 0x%02x)" offset
             (Char.code (Bytes.get code offset))))
    end;
    let window =
      if len = 0 then []
      else
        let target = max 0 (min offset (len - 1)) in
        disasm_window ~code ~base:0 ~pc:target ()
    in
    { v_pass = pass; v_offset = offset; v_reason = reason; v_window = window;
      v_evidence = List.rev !evidence }

let verdict_to_json v =
  Json.Obj
    [
      ("schema", Json.Str "deflection-forensics/1");
      ("kind", Json.Str "rejection");
      ("pass", Json.Str v.v_pass);
      ("offset", Json.Int v.v_offset);
      ("reason", Json.Str v.v_reason);
      ("window", window_to_json v.v_window);
      ("evidence", Json.List (List.map (fun e -> Json.Str e) v.v_evidence));
    ]

(* ------------------------------------------------------------------ *)
(* Rendering saved documents *)

let render_window fmt j =
  match Json.member "window" j with
  | Some (Json.List lines) when lines <> [] ->
    Format.fprintf fmt "disassembly:@,";
    List.iter
      (fun l ->
        let fault = match Json.member "fault" l with Some (Json.Bool b) -> b | _ -> false in
        Format.fprintf fmt "  %s%#08x: %-24s %s@,"
          (if fault then "=>" else "  ")
          (Option.value ~default:0 (Json.int "addr" l))
          (Option.value ~default:"" (Json.str "bytes" l))
          (Option.value ~default:"" (Json.str "text" l)))
      lines
  | _ -> ()

let render_crash j =
  Format.asprintf "%a"
    (fun fmt () ->
      Format.fprintf fmt "@[<v>== DEFLECTION crash report ==@,";
      Format.fprintf fmt "exit: %s — %s@,"
        (Option.value ~default:"?" (Json.str "exit" j))
        (Option.value ~default:"" (Json.str "detail" j));
      (match Json.str "policy" j with
      | Some p ->
        Format.fprintf fmt "violated policy: %s%s@," p
          (match Policy.of_name p with
          | Some pol -> " — " ^ Policy.describe pol
          | None -> "")
      | None -> ());
      (match Json.str "abort_stub" j with
      | Some s -> Format.fprintf fmt "abort stub: %s@," s
      | None -> ());
      Format.fprintf fmt "fault pc: %#x@," (Option.value ~default:0 (Json.int "pc" j));
      (match Json.str "instr_bytes" j with
      | Some b when b <> "" -> Format.fprintf fmt "instruction bytes: %s@," b
      | _ -> ());
      render_window fmt j;
      (match Json.member "regs" j with
      | Some (Json.Obj regs) when regs <> [] ->
        Format.fprintf fmt "registers:@,";
        List.iter
          (fun (n, v) ->
            match v with
            | Json.Str s -> Format.fprintf fmt "  %-4s = %s@," n s
            | _ -> ())
          regs
      | _ -> ());
      (match Json.member "regions" j with
      | Some (Json.List rs) when rs <> [] ->
        Format.fprintf fmt "enclave memory map:@,";
        List.iter
          (fun r ->
            Format.fprintf fmt "  %#08x..%#08x %-4s %s@,"
              (Option.value ~default:0 (Json.int "lo" r))
              (Option.value ~default:0 (Json.int "hi" r))
              (Option.value ~default:"" (Json.str "perm" r))
              (Option.value ~default:"" (Json.str "name" r)))
          rs
      | _ -> ());
      (match Json.member "events" j with
      | Some (Json.List es) when es <> [] ->
        Format.fprintf fmt "flight recorder (last %d events%s):@," (List.length es)
          (match Json.int "events_dropped" j with
          | Some n when n > 0 -> Printf.sprintf ", %d older dropped" n
          | _ -> "");
        List.iter
          (fun e ->
            Format.fprintf fmt "  [%d] %s pc=%#x arg=%d@,"
              (Option.value ~default:0 (Json.int "seq" e))
              (Option.value ~default:"?" (Json.str "kind" e))
              (Option.value ~default:0 (Json.int "pc" e))
              (Option.value ~default:0 (Json.int "arg" e)))
          es
      | _ -> ());
      (match Json.member "stats" j with
      | Some stats ->
        Format.fprintf fmt "stats: cycles=%d instructions=%d aexes=%d ocalls=%d leaked_bytes=%d@,"
          (Option.value ~default:0 (Json.int "cycles" stats))
          (Option.value ~default:0 (Json.int "instructions" stats))
          (Option.value ~default:0 (Json.int "aexes" stats))
          (Option.value ~default:0 (Json.int "ocalls" stats))
          (Option.value ~default:0 (Json.int "leaked_bytes" stats))
      | None -> ());
      Format.fprintf fmt "@]")
    ()

let render_rejection j =
  Format.asprintf "%a"
    (fun fmt () ->
      Format.fprintf fmt "@[<v>== DEFLECTION rejection verdict ==@,";
      Format.fprintf fmt "failed pass: %s@," (Option.value ~default:"?" (Json.str "pass" j));
      Format.fprintf fmt "offset: %#x@," (Option.value ~default:0 (Json.int "offset" j));
      Format.fprintf fmt "reason: %s@," (Option.value ~default:"" (Json.str "reason" j));
      (match Json.member "evidence" j with
      | Some (Json.List es) when es <> [] ->
        Format.fprintf fmt "evidence:@,";
        List.iter (function Json.Str e -> Format.fprintf fmt "  - %s@," e | _ -> ()) es
      | _ -> ());
      render_window fmt j;
      Format.fprintf fmt "@]")
    ()

let render_profile j =
  Format.asprintf "%a"
    (fun fmt () ->
      Format.fprintf fmt "@[<v>== DEFLECTION profile ==@,";
      Format.fprintf fmt "sampling interval: %d cycles@,"
        (Option.value ~default:0 (Json.int "interval" j));
      (match Json.int "cycles" j with
      | Some c -> Format.fprintf fmt "cycles: %d@," c
      | None -> ());
      let total = Option.value ~default:0 (Json.int "samples_total" j) in
      Format.fprintf fmt "samples: %d@," total;
      Format.fprintf fmt "retired instructions: %d@,"
        (Option.value ~default:0 (Json.int "retired_instructions" j));
      (match Json.member "functions" j with
      | Some (Json.Obj fns) when fns <> [] ->
        Format.fprintf fmt "by function:@,";
        List.iter
          (fun (n, v) ->
            match v with
            | Json.Int c ->
              Format.fprintf fmt "  %-28s %8d (%5.1f%%)@," n c
                (if total = 0 then 0.0 else 100.0 *. float_of_int c /. float_of_int total)
            | _ -> ())
          fns
      | _ -> ());
      (match Json.member "hotspots" j with
      | Some (Json.List hs) when hs <> [] ->
        Format.fprintf fmt "hottest sites:@,";
        List.iteri
          (fun i h ->
            if i < 10 then
              Format.fprintf fmt "  %s;+0x%x pc=%#x %8d@,"
                (Option.value ~default:"?" (Json.str "func" h))
                (Option.value ~default:0 (Json.int "offset" h))
                (Option.value ~default:0 (Json.int "pc" h))
                (Option.value ~default:0 (Json.int "count" h)))
          hs
      | _ -> ());
      Format.fprintf fmt "@]")
    ()

let render j =
  match Json.str "schema" j with
  | Some "deflection-forensics/1" -> (
    match Json.str "kind" j with
    | Some "crash" -> Ok (render_crash j)
    | Some "rejection" -> Ok (render_rejection j)
    | Some k -> Error (Printf.sprintf "unknown forensics document kind %S" k)
    | None -> Error "forensics document has no \"kind\" field")
  | Some "deflection-profile/1" -> Ok (render_profile j)
  | Some s -> Error (Printf.sprintf "unrecognized schema %S" s)
  | None -> Error "document has no \"schema\" field (not a forensics or profile document)"
