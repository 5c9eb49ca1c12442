module Json = Deflection_telemetry.Json
module Hex = Deflection_util.Hex
module Fs = Deflection_util.Fs
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

let schema = "deflection-server-cache/2"

type t = {
  dir : string;
  file : string;
  key : bytes;  (* platform sealing key: wrong platform -> every MAC fails *)
  segment_entries : int;
  resilience : Resilience.t;
  mutable gen : int;
}

(* ------------------------------------------------------------------ *)
(* Entry (de)serialization.  The JSON form is what goes on disk; the
   canonical form is what gets MAC'd.  Verifier's codec writes the verdict
   in both; an acceptance adds its classification offsets. *)

(* [Some] of every image when [f] maps every element to [Some]. *)
let all f l =
  List.fold_right
    (fun x acc -> match (f x, acc) with Some y, Some a -> Some (y :: a) | _ -> None)
    l (Some [])

(* The injective per-entry encoding the segment MAC covers: every field
   length-prefixed via Audit.mac_body, variable-length offset lists
   preceded by their count. *)
let canonical_entry (e : entry) =
  let offsets tag l = tag :: string_of_int (List.length l) :: List.map string_of_int l in
  let classification =
    match e.verdict with
    | Ok (_, cls) ->
      let machinery, guarded = Verifier.classification_offsets cls in
      offsets "machinery" machinery @ offsets "guarded" guarded
    | Error _ -> []
  in
  Bytes.to_string
    (Audit.mac_body "deflection-server-entry/1"
       ([ e.tenant; Hex.encode_string e.key; e.mode ]
       @ Verifier.verdict_fields (Result.map fst e.verdict)
       @ classification))

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
  let ints l = Json.List (List.map (fun o -> Json.Int o) l) in
  let classification =
    match e.verdict with
    | Ok (_, cls) ->
      let machinery, guarded = Verifier.classification_offsets cls in
      [ ("machinery", ints machinery); ("guarded_stores", ints guarded) ]
    | Error _ -> []
  in
  Json.Obj
    ([
       ("tenant", Json.Str e.tenant);
       ("key", Json.Str (Hex.encode_string e.key));
       ("mode", Json.Str e.mode);
       ("verdict", Verifier.verdict_to_json (Result.map fst e.verdict));
     ]
    @ classification)

let entry_of_json j =
  let ( let* ) o f = Option.bind o f in
  let ints name =
    Option.bind (Json.list name j) (all (function Json.Int i -> Some i | _ -> None))
  in
  let* tenant = Json.str "tenant" j in
  let* key_hex = Json.str "key" j in
  let* key = try Some (Bytes.to_string (Hex.decode key_hex)) with _ -> None in
  let* mode = Json.str "mode" j in
  let* _ = Verifier.mode_of_label mode in
  let* verdict = Json.member "verdict" j in
  let* verdict =
    match Verifier.verdict_of_json verdict with
    | Error _ -> None
    | Ok (Error rej) -> Some (Error rej)
    | Ok (Ok rep) ->
      let* machinery = ints "machinery" in
      let* guarded_stores = ints "guarded_stores" in
      Some (Ok (rep, Verifier.classification_of_offsets ~machinery ~guarded_stores))
  in
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

let disk_generation file =
  if not (Sys.file_exists file) then 0
  else
    match Json.parse (Fs.read_file file) with
    | Ok doc -> Option.value ~default:0 (Json.int "generation" doc)
    | Error _ -> 0

let create ?(segment_entries = 32) ~dir ~platform () =
  if segment_entries < 1 then invalid_arg "Persist.create: segment_entries must be >= 1";
  Fs.mkdir_p dir;
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
      (* the live name always holds a whole sealed file: the previous
         generation is copied to [.1], never moved away from it *)
      if Sys.file_exists t.file then Fs.write_atomic (t.file ^ ".1") (Fs.read_file t.file);
      Fs.write_atomic t.file bytes
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
    match Json.list "segments" doc with
    | Some segs when segs <> [] -> (
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
              match Json.parse (Fs.read_file old_file) with
              | Ok old_doc -> (
                match Json.list "segments" old_doc with
                | Some old_segs when old_segs <> [] ->
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
  match Json.list "entries" seg with
  | Some entry_js -> (
    match (all entry_of_json entry_js, Json.int "index" seg, Json.str "mac" seg) with
    | Some entries, Some idx, Some mac_hex when idx = position -> (
      match (try Some (Hex.decode mac_hex) with _ -> None) with
      | None -> (Seg_malformed, [])
      | Some tag ->
        let canons = List.map canonical_entry entries in
        if Hmac.equal (segment_mac ~key:t.key ~generation ~position canons) tag then
          (Seg_loaded (List.length entries), entries)
        else (Seg_bad_mac, []))
    | Some _, Some _, Some _ -> (Seg_bad_mac, [])  (* declared index out of place *)
    | _ -> (Seg_malformed, []))
  | None -> (Seg_malformed, [])

let load ?(chaos = Chaos.disabled) t =
  if not (Sys.file_exists t.file) then
    ([], none_loaded ~found:false ~malformed:false ~generation:0)
  else
    let raw =
      let attempt ~attempt:_ =
        match Fs.read_file t.file with
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
        match (Json.str "schema" doc, Json.int "generation" doc, Json.list "segments" doc) with
        | Some s, Some generation, Some segs when s = schema ->
          let outcomes_entries =
            List.mapi (fun position seg -> verify_segment t ~generation ~position seg) segs
          in
          let segments = List.map fst outcomes_entries in
          let entries = List.concat_map snd outcomes_entries in
          let truncated =
            match Option.map Hex.decode (Json.str "final_mac" doc) with
            | Some tag ->
              not (Hmac.equal (final_mac ~key:t.key ~generation ~n_segments:(List.length segs)) tag)
            | None | (exception Invalid_argument _) -> true
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
