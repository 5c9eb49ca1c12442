module Json = Deflection_telemetry.Json
module Hex = Deflection_util.Hex
module Hmac = Deflection_crypto.Hmac
module Verifier = Deflection_verifier.Verifier
module Attestation = Deflection_attestation.Attestation
module Audit = Deflection_audit.Audit
module Chaos = Deflection_chaos.Chaos
module Resilience = Deflection_chaos.Resilience

type verdict = (Verifier.report * Verifier.classification, Verifier.rejection) result
type entry = { tenant : string; key : string; mode : string; verdict : verdict }
type segment_outcome = Seg_loaded of int | Seg_bad_mac | Seg_malformed

type load_report = {
  found : bool;
  malformed : bool;
  truncated : bool;
  generation : int;
  segments : segment_outcome list;
  entries_loaded : int;
  segments_discarded : int;
}

let segment_outcome_to_json = function
  | Seg_loaded n -> Json.Obj [ ("status", Json.Str "loaded"); ("entries", Json.Int n) ]
  | Seg_bad_mac -> Json.Obj [ ("status", Json.Str "bad-mac") ]
  | Seg_malformed -> Json.Obj [ ("status", Json.Str "malformed") ]

let load_report_to_json r =
  Json.Obj
    [
      ("found", Json.Bool r.found);
      ("malformed", Json.Bool r.malformed);
      ("truncated", Json.Bool r.truncated);
      ("generation", Json.Int r.generation);
      ("segments", Json.List (List.map segment_outcome_to_json r.segments));
      ("entries_loaded", Json.Int r.entries_loaded);
      ("segments_discarded", Json.Int r.segments_discarded);
    ]

let schema = "deflection-server-cache/1"

type t = {
  dir : string;
  file : string;
  key : bytes;  (* platform sealing key: wrong platform -> every MAC fails *)
  segment_entries : int;
  resilience : Resilience.t;
  mutable gen : int;
}

(* ------------------------------------------------------------------ *)
(* Verdict (de)serialization.  The JSON form is what goes on disk; the
   canonical form below is what gets MAC'd. *)

let report_to_json (r : Verifier.report) =
  Json.Obj
    [
      ("instructions_checked", Json.Int r.instructions_checked);
      ("store_annotations", Json.Int r.store_annotations);
      ("rsp_annotations", Json.Int r.rsp_annotations);
      ("cfi_annotations", Json.Int r.cfi_annotations);
      ("prologues", Json.Int r.prologues);
      ("epilogues", Json.Int r.epilogues);
      ("ssa_checks", Json.Int r.ssa_checks);
    ]

let verdict_to_json : verdict -> Json.t = function
  | Ok (rep, cls) ->
    let machinery, guarded = Verifier.classification_offsets cls in
    Json.Obj
      [
        ("status", Json.Str "accepted");
        ("report", report_to_json rep);
        ("machinery", Json.List (List.map (fun o -> Json.Int o) machinery));
        ("guarded_stores", Json.List (List.map (fun o -> Json.Int o) guarded));
      ]
  | Error rej ->
    Json.Obj
      [
        ("status", Json.Str "rejected");
        ("pass", Json.Str (Verifier.pass_label rej.Verifier.pass));
        ("offset", Json.Int rej.Verifier.offset);
        ("reason", Json.Str rej.Verifier.reason);
      ]

let str_member k j = match Json.member k j with Some (Json.Str s) -> Some s | _ -> None
let int_member k j = match Json.member k j with Some (Json.Int i) -> Some i | _ -> None

let int_list_member k j =
  match Json.member k j with
  | Some (Json.List l) ->
    List.fold_left
      (fun acc e -> match (acc, e) with Some a, Json.Int i -> Some (i :: a) | _ -> None)
      (Some []) l
    |> Option.map List.rev
  | _ -> None

let report_of_json j =
  let ( let* ) o f = Option.bind o f in
  let* instructions_checked = int_member "instructions_checked" j in
  let* store_annotations = int_member "store_annotations" j in
  let* rsp_annotations = int_member "rsp_annotations" j in
  let* cfi_annotations = int_member "cfi_annotations" j in
  let* prologues = int_member "prologues" j in
  let* epilogues = int_member "epilogues" j in
  let* ssa_checks = int_member "ssa_checks" j in
  Some
    {
      Verifier.instructions_checked;
      store_annotations;
      rsp_annotations;
      cfi_annotations;
      prologues;
      epilogues;
      ssa_checks;
    }

let verdict_of_json j : verdict option =
  let ( let* ) o f = Option.bind o f in
  match str_member "status" j with
  | Some "accepted" ->
    let* rep = Option.bind (Json.member "report" j) report_of_json in
    let* machinery = int_list_member "machinery" j in
    let* guarded_stores = int_list_member "guarded_stores" j in
    Some (Ok (rep, Verifier.classification_of_offsets ~machinery ~guarded_stores))
  | Some "rejected" ->
    let* pass = Option.bind (str_member "pass" j) Verifier.pass_of_label in
    let* offset = int_member "offset" j in
    let* reason = str_member "reason" j in
    Some (Error { Verifier.pass; offset; reason })
  | _ -> None

(* The injective per-entry encoding the segment MAC covers: every field
   length-prefixed via Audit.mac_body, variable-length offset lists
   preceded by their count. *)
let canonical_entry (e : entry) =
  let fields =
    [ e.tenant; Hex.encode_string e.key; e.mode ]
    @
    match e.verdict with
    | Ok (rep, cls) ->
      let machinery, guarded = Verifier.classification_offsets cls in
      [
        "accepted";
        string_of_int rep.Verifier.instructions_checked;
        string_of_int rep.Verifier.store_annotations;
        string_of_int rep.Verifier.rsp_annotations;
        string_of_int rep.Verifier.cfi_annotations;
        string_of_int rep.Verifier.prologues;
        string_of_int rep.Verifier.epilogues;
        string_of_int rep.Verifier.ssa_checks;
        "machinery";
        string_of_int (List.length machinery);
      ]
      @ List.map string_of_int machinery
      @ [ "guarded"; string_of_int (List.length guarded) ]
      @ List.map string_of_int guarded
    | Error rej ->
      [
        "rejected";
        Verifier.pass_label rej.Verifier.pass;
        string_of_int rej.Verifier.offset;
        rej.Verifier.reason;
      ]
  in
  Bytes.to_string (Audit.mac_body "deflection-server-entry/1" fields)

(* The MAC binds the generation and the segment's *position* (not a
   declared index), so reordering two well-MAC'd segments — or replaying
   one from an older generation — fails verification. *)
let segment_mac ~key ~generation ~position entry_canons =
  Hmac.sha256 ~key
    (Audit.mac_body "DEFLECTION-server-segment-v1"
       (string_of_int generation :: string_of_int position :: entry_canons))

let final_mac ~key ~generation ~n_segments =
  Hmac.sha256 ~key
    (Audit.mac_body "DEFLECTION-server-final-v1"
       [ string_of_int generation; string_of_int n_segments ])

(* ------------------------------------------------------------------ *)

let entry_to_json e =
  Json.Obj
    [
      ("tenant", Json.Str e.tenant);
      ("key", Json.Str (Hex.encode_string e.key));
      ("mode", Json.Str e.mode);
      ("verdict", verdict_to_json e.verdict);
    ]

let entry_of_json j =
  let ( let* ) o f = Option.bind o f in
  let* tenant = str_member "tenant" j in
  let* key_hex = str_member "key" j in
  let* key = try Some (Bytes.to_string (Hex.decode key_hex)) with _ -> None in
  let* mode = str_member "mode" j in
  let* _ = Verifier.mode_of_label mode in
  let* verdict = Option.bind (Json.member "verdict" j) verdict_of_json in
  Some { tenant; key; mode; verdict }

let rec chunks n = function
  | [] -> []
  | l ->
    let rec take k acc = function
      | rest when k = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | x :: rest -> take (k - 1) (x :: acc) rest
    in
    let seg, rest = take n [] l in
    seg :: chunks n rest

let seal_doc t ~generation entries =
  let segments = chunks t.segment_entries entries in
  let seg_json position seg =
    let canons = List.map canonical_entry seg in
    Json.Obj
      [
        ("index", Json.Int position);
        ("entries", Json.List (List.map entry_to_json seg));
        ("mac", Json.Str (Hex.encode (segment_mac ~key:t.key ~generation ~position canons)));
      ]
  in
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("generation", Json.Int generation);
      ("segments", Json.List (List.mapi seg_json segments));
      ( "final_mac",
        Json.Str (Hex.encode (final_mac ~key:t.key ~generation ~n_segments:(List.length segments)))
      );
    ]

(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let disk_generation file =
  if not (Sys.file_exists file) then 0
  else
    match Json.parse (read_file file) with
    | Ok doc -> Option.value ~default:0 (int_member "generation" doc)
    | Error _ -> 0

let create ?(segment_entries = 32) ~dir ~platform () =
  if segment_entries < 1 then invalid_arg "Persist.create: segment_entries must be >= 1";
  mkdir_p dir;
  let file = Filename.concat dir "verdict-cache.json" in
  {
    dir;
    file;
    key = Attestation.Platform.sealing_key platform;
    segment_entries;
    resilience = Resilience.create ~seed:1L ();
    gen = disk_generation file;
  }

let path t = t.file
let generation t = t.gen

let save ?(chaos = Chaos.disabled) ~round t entries =
  let generation = t.gen + 1 in
  let doc = seal_doc t ~generation entries in
  let bytes = Json.to_string doc in
  let bytes =
    (* a torn write: only a prefix of the sealed bytes reaches the disk *)
    match Chaos.torn_write chaos ~round with
    | None -> bytes
    | Some frac16 -> String.sub bytes 0 (String.length bytes * frac16 / 16)
  in
  let attempt ~attempt:_ =
    match
      let tmp = t.file ^ ".tmp" in
      write_file tmp bytes;
      if Sys.file_exists t.file then Sys.rename t.file (t.file ^ ".1");
      Sys.rename tmp t.file
    with
    | () -> Resilience.Done ()
    | exception Sys_error m -> Resilience.Transient m
  in
  match Resilience.run t.resilience ~stage:"persist.seal" attempt with
  | Ok () ->
    t.gen <- generation;
    Ok ()
  | Error (Resilience.Timed_out { last; _ }) -> Error last
  | Error (Resilience.Gave_up e) -> Error e

(* ------------------------------------------------------------------ *)

let none_loaded ~found ~malformed ~generation =
  {
    found;
    malformed;
    truncated = false;
    generation;
    segments = [];
    entries_loaded = 0;
    segments_discarded = 0;
  }

(* Chaos doctoring of the bytes the host serves: replace one segment with
   its previous-generation counterpart (kept on disk as [.1] by [save] —
   exactly the material a real host still has), or corrupt one MAC. *)
let apply_host_tamper ~chaos t doc =
  let with_segments f =
    match Json.member "segments" doc with
    | Some (Json.List segs) when segs <> [] -> (
      match doc with
      | Json.Obj fields ->
        let segs' = f segs in
        Json.Obj
          (List.map
             (fun (k, v) -> if k = "segments" then (k, Json.List segs') else (k, v))
             fields)
      | _ -> doc)
    | _ -> doc
  in
  let doc =
    match Chaos.stale_segment chaos with
    | None -> doc
    | Some s ->
      with_segments (fun segs ->
          let n = List.length segs in
          let pos = s mod n in
          let stale =
            let old_file = t.file ^ ".1" in
            if not (Sys.file_exists old_file) then None
            else
              match Json.parse (read_file old_file) with
              | Ok old_doc -> (
                match Json.member "segments" old_doc with
                | Some (Json.List old_segs) when old_segs <> [] ->
                  Some (List.nth old_segs (pos mod List.length old_segs))
                | _ -> None)
              | Error _ -> None
          in
          match stale with
          | None -> segs
          | Some old_seg -> List.mapi (fun i seg -> if i = pos then old_seg else seg) segs)
  in
  match Chaos.mac_corrupt chaos with
  | None -> doc
  | Some s ->
    with_segments (fun segs ->
        let n = List.length segs in
        let pos = s mod n in
        List.mapi
          (fun i seg ->
            if i <> pos then seg
            else
              match seg with
              | Json.Obj fields ->
                Json.Obj
                  (List.map
                     (fun (k, v) ->
                       match (k, v) with
                       | "mac", Json.Str m when m <> "" ->
                         let flipped =
                           String.mapi (fun j c -> if j = 0 then (if c = '0' then '1' else '0') else c) m
                         in
                         (k, Json.Str flipped)
                       | _ -> (k, v))
                     fields)
              | _ -> seg)
          segs)

let verify_segment t ~generation ~position seg =
  match Json.member "entries" seg with
  | Some (Json.List entry_js) -> (
    let entries =
      List.fold_left
        (fun acc j ->
          match (acc, entry_of_json j) with Some a, Some e -> Some (e :: a) | _ -> None)
        (Some []) entry_js
      |> Option.map List.rev
    in
    match (entries, int_member "index" seg, str_member "mac" seg) with
    | Some entries, Some idx, Some mac_hex when idx = position -> (
      match (try Some (Hex.decode mac_hex) with _ -> None) with
      | None -> (Seg_malformed, [])
      | Some tag ->
        let canons = List.map canonical_entry entries in
        if Hmac.verify ~key:t.key (Audit.mac_body "DEFLECTION-server-segment-v1"
              (string_of_int generation :: string_of_int position :: canons))
             ~tag
        then (Seg_loaded (List.length entries), entries)
        else (Seg_bad_mac, []))
    | Some _, Some _, Some _ -> (Seg_bad_mac, [])  (* declared index out of place *)
    | _ -> (Seg_malformed, []))
  | _ -> (Seg_malformed, [])

let load ?(chaos = Chaos.disabled) t =
  if not (Sys.file_exists t.file) then
    ([], none_loaded ~found:false ~malformed:false ~generation:0)
  else
    let raw =
      let attempt ~attempt:_ =
        match read_file t.file with
        | s -> Resilience.Done s
        | exception Sys_error m -> Resilience.Transient m
      in
      match Resilience.run t.resilience ~stage:"persist.load" attempt with
      | Ok s -> Some s
      | Error _ -> None
    in
    match raw with
    | None -> ([], none_loaded ~found:true ~malformed:true ~generation:0)
    | Some raw -> (
      match Json.parse raw with
      | Error _ -> ([], none_loaded ~found:true ~malformed:true ~generation:0)
      | Ok doc -> (
        let doc = apply_host_tamper ~chaos t doc in
        match (str_member "schema" doc, int_member "generation" doc, Json.member "segments" doc)
        with
        | Some s, Some generation, Some (Json.List segs) when s = schema ->
          let outcomes_entries =
            List.mapi (fun position seg -> verify_segment t ~generation ~position seg) segs
          in
          let segments = List.map fst outcomes_entries in
          let entries = List.concat_map snd outcomes_entries in
          let truncated =
            match str_member "final_mac" doc with
            | None -> true
            | Some mac_hex -> (
              match (try Some (Hex.decode mac_hex) with _ -> None) with
              | None -> true
              | Some tag ->
                not
                  (Hmac.verify ~key:t.key
                     (Audit.mac_body "DEFLECTION-server-final-v1"
                        [ string_of_int generation; string_of_int (List.length segs) ])
                     ~tag))
          in
          ( entries,
            {
              found = true;
              malformed = false;
              truncated;
              generation;
              segments;
              entries_loaded = List.length entries;
              segments_discarded =
                List.length (List.filter (function Seg_loaded _ -> false | _ -> true) segments);
            } )
        | _ -> ([], none_loaded ~found:true ~malformed:true ~generation:0)))
