module Policy = Deflection_policy.Policy
module Verifier = Deflection_verifier.Verifier
module Attestation = Deflection_attestation.Attestation
module Json = Deflection_telemetry.Json
module Sha256 = Deflection_crypto.Sha256
module Hmac = Deflection_crypto.Hmac
module Hex = Deflection_util.Hex

type cache_outcome = Hit | Miss | Uncached

let cache_outcome_label = function Hit -> "hit" | Miss -> "miss" | Uncached -> "uncached"

let cache_outcome_of_label = function
  | "hit" -> Some Hit
  | "miss" -> Some Miss
  | "uncached" -> Some Uncached
  | _ -> None

type record = {
  seq : int;
  measurement : string;
  policies : string;
  mode : string;  (* Verifier.mode_label of the admitting verification mode *)
  ssa_q : int;
  verdict : (Verifier.report, Verifier.rejection) result;
  cache : cache_outcome;
  lane : int;
}

let schema = "deflection-audit/1"

(* Injective encoding: every field is length-prefixed, so no field value
   (reason strings, policy labels) can masquerade as a field boundary.
   Records, segment MACs and the sealed cache's MACs all use it. *)
let mac_body tag fields =
  let b = Buffer.create 160 in
  List.iter
    (fun s ->
      Buffer.add_string b (string_of_int (String.length s));
      Buffer.add_char b ':';
      Buffer.add_string b s)
    (tag :: fields);
  Buffer.to_bytes b

let canonical r =
  Bytes.unsafe_to_string
    (mac_body "deflection-audit-record/1"
       ([ string_of_int r.seq; r.measurement; r.policies; r.mode; string_of_int r.ssa_q ]
       @ Verifier.verdict_fields r.verdict
       @ [ cache_outcome_label r.cache; string_of_int r.lane ]))

let content_key r = canonical { r with seq = 0; lane = 0 }

let genesis_raw = Sha256.digest (Bytes.of_string schema)
let genesis = Hex.encode genesis_raw
let plane_measurement = Sha256.digest (Bytes.of_string "DEFLECTION-audit-plane-v1")

let chain_step prev canon =
  let ctx = Sha256.init () in
  Sha256.update ctx prev;
  Sha256.update_string ctx canon;
  Sha256.finalize ctx

let segment_mac ~key ~index ~first_seq ~last_seq ~prev_head ~head =
  Hmac.sha256 ~key
    (mac_body "DEFLECTION-audit-segment-v1"
       [
         string_of_int index;
         string_of_int first_seq;
         string_of_int last_seq;
         Bytes.to_string prev_head;
         Bytes.to_string head;
       ])

let final_mac ~key ~count ~head =
  Hmac.sha256 ~key
    (mac_body "DEFLECTION-audit-final-v1" [ string_of_int count; Bytes.to_string head ])

(* ------------------------------------------------------------------ *)

module Log = struct
  type segment = {
    s_index : int;
    s_first : int;
    s_last : int;
    s_head : bytes;  (* chain head after s_last *)
    s_mac : bytes;
  }

  type t = {
    platform : Attestation.Platform.t;
    key : bytes;
    segment_records : int;
    mutex : Mutex.t;
    mutable records_rev : record list;
    mutable count : int;
    mutable head : bytes;
    mutable seg_start_head : bytes;  (* head before the open segment *)
    mutable seg_first : int;  (* first seq of the open segment *)
    mutable segments_rev : segment list;
  }

  let create ?(segment_records = 8) ~platform () =
    if segment_records < 1 then
      invalid_arg "Audit.Log.create: segment_records must be positive";
    {
      platform;
      key = Attestation.Platform.sealing_key platform;
      segment_records;
      mutex = Mutex.create ();
      records_rev = [];
      count = 0;
      head = genesis_raw;
      seg_start_head = genesis_raw;
      seg_first = 0;
      segments_rev = [];
    }

  let append t ~measurement ~policies ~mode ~ssa_q ~verdict ~cache ~lane =
    Mutex.lock t.mutex;
    let r =
      {
        seq = t.count;
        measurement = Hex.encode measurement;
        policies = Policy.Set.label policies;
        mode = Verifier.mode_label mode;
        ssa_q;
        verdict;
        cache;
        lane;
      }
    in
    t.head <- chain_step t.head (canonical r);
    t.records_rev <- r :: t.records_rev;
    t.count <- t.count + 1;
    if t.count - t.seg_first = t.segment_records then begin
      let s_index = List.length t.segments_rev in
      t.segments_rev <-
        {
          s_index;
          s_first = t.seg_first;
          s_last = t.count - 1;
          s_head = t.head;
          s_mac =
            segment_mac ~key:t.key ~index:s_index ~first_seq:t.seg_first
              ~last_seq:(t.count - 1) ~prev_head:t.seg_start_head ~head:t.head;
        }
        :: t.segments_rev;
      t.seg_start_head <- t.head;
      t.seg_first <- t.count
    end;
    Mutex.unlock t.mutex;
    r

  let length t =
    Mutex.lock t.mutex;
    let n = t.count in
    Mutex.unlock t.mutex;
    n

  let head t =
    Mutex.lock t.mutex;
    let h = Hex.encode t.head in
    Mutex.unlock t.mutex;
    h

  let records t =
    Mutex.lock t.mutex;
    let rs = List.rev t.records_rev in
    Mutex.unlock t.mutex;
    rs

  let record_json r =
    Json.Obj
      [
        ("seq", Json.Int r.seq);
        ("measurement", Json.Str r.measurement);
        ("policies", Json.Str r.policies);
        ("mode", Json.Str r.mode);
        ("ssa_q", Json.Int r.ssa_q);
        ("verdict", Verifier.verdict_to_json r.verdict);
        ("cache", Json.Str (cache_outcome_label r.cache));
        ("lane", Json.Int r.lane);
      ]

  let segment_json s =
    Json.Obj
      [
        ("index", Json.Int s.s_index);
        ("first_seq", Json.Int s.s_first);
        ("last_seq", Json.Int s.s_last);
        ("head", Json.Str (Hex.encode s.s_head));
        ("mac", Json.Str (Hex.encode s.s_mac));
      ]

  let seal t =
    Mutex.lock t.mutex;
    let records = List.rev t.records_rev in
    let count = t.count in
    let head = Bytes.copy t.head in
    let closed = List.rev t.segments_rev in
    let seg_first = t.seg_first in
    let seg_start_head = t.seg_start_head in
    Mutex.unlock t.mutex;
    (* a trailing partial segment gets its MAC at seal time, so every
       record of the sealed document is MAC-covered *)
    let segments =
      if count > seg_first then
        closed
        @ [
            (let s_index = List.length closed in
             {
               s_index;
               s_first = seg_first;
               s_last = count - 1;
               s_head = head;
               s_mac =
                 segment_mac ~key:t.key ~index:s_index ~first_seq:seg_first
                   ~last_seq:(count - 1) ~prev_head:seg_start_head ~head;
             });
          ]
      else closed
    in
    let quote =
      Attestation.Platform.quote t.platform ~measurement:plane_measurement ~report_data:head
    in
    Json.Obj
      [
        ("schema", Json.Str schema);
        ("genesis", Json.Str genesis);
        ("segment_records", Json.Int t.segment_records);
        ("records", Json.List (List.map record_json records));
        ("segments", Json.List (List.map segment_json segments));
        ("head", Json.Str (Hex.encode head));
        ("final_mac", Json.Str (Hex.encode (final_mac ~key:t.key ~count ~head)));
        ( "quote",
          Json.Obj
            [
              ("measurement", Json.Str (Hex.encode quote.Attestation.Quote.measurement));
              ("report_data", Json.Str (Hex.encode quote.Attestation.Quote.report_data));
              ("signature", Json.Str (Hex.encode quote.Attestation.Quote.signature));
            ] );
      ]
end

type sink = { log : Log.t; lane : int }

(* ------------------------------------------------------------------ *)
(* Consumer side: re-walk a sealed document. *)

type tamper =
  | Malformed of string
  | Sequence_broken of { index : int }
  | Chain_mismatch of { segment : int }
  | Segment_mac_mismatch of { segment : int }
  | Coverage_gap of { segment : int }
  | Head_mismatch
  | Final_mac_mismatch
  | Quote_mismatch of string

let tamper_to_string = function
  | Malformed m -> Printf.sprintf "malformed audit document: %s" m
  | Sequence_broken { index } ->
    Printf.sprintf "sequence broken at record %d: drop, reorder or insertion" index
  | Chain_mismatch { segment } ->
    Printf.sprintf "hash chain diverges inside segment %d: a record was altered" segment
  | Segment_mac_mismatch { segment } ->
    Printf.sprintf "segment %d MAC does not verify: spliced or forged history" segment
  | Coverage_gap { segment } ->
    Printf.sprintf "segment list does not tile the records at segment %d" segment
  | Head_mismatch -> "document head is not the re-walked chain head"
  | Final_mac_mismatch -> "closing MAC fails: history truncated or extended"
  | Quote_mismatch m -> Printf.sprintf "quote does not bind this history: %s" m

let pp_tamper fmt t = Format.pp_print_string fmt (tamper_to_string t)

type summary = { n_records : int; n_segments : int }

exception Bad of string

let need kind get name j =
  match get name j with
  | Some v -> v
  | None -> raise (Bad (Printf.sprintf "missing %s field %S" kind name))

let str_field = need "string" Json.str
let int_field = need "int" Json.int
let list_field = need "list" Json.list

let record_of_json j =
  let verdict =
    match Verifier.verdict_of_json (need "object" Json.member "verdict" j) with
    | Ok v -> v
    | Error m -> raise (Bad m)
  in
  let cache =
    match cache_outcome_of_label (str_field "cache" j) with
    | Some c -> c
    | None -> raise (Bad "unknown cache outcome")
  in
  let mode =
    match str_field "mode" j with
    | s when Verifier.mode_of_label s <> None -> s
    | other -> raise (Bad (Printf.sprintf "unknown verification mode %S" other))
  in
  {
    seq = int_field "seq" j;
    measurement = str_field "measurement" j;
    policies = str_field "policies" j;
    mode;
    ssa_q = int_field "ssa_q" j;
    verdict;
    cache;
    lane = int_field "lane" j;
  }

let records_of_doc doc =
  try
    if str_field "schema" doc <> schema then
      raise (Bad (Printf.sprintf "schema is not %S" schema));
    Ok (List.map record_of_json (list_field "records" doc))
  with Bad m -> Error m

let hex_decode_field name j =
  let s = str_field name j in
  match Hex.decode s with
  | b -> b
  | exception Invalid_argument _ ->
    raise (Bad (Printf.sprintf "field %S is not hex" name))

type parsed_segment = { p_index : int; p_first : int; p_last : int; p_head : bytes; p_mac : bytes }

let verify ~platform doc =
  let key = Attestation.Platform.sealing_key platform in
  try
    if str_field "schema" doc <> schema then
      raise (Bad (Printf.sprintf "schema is not %S" schema));
    if str_field "genesis" doc <> genesis then raise (Bad "genesis does not match the schema");
    let records = List.map record_of_json (list_field "records" doc) in
    let n = List.length records in
    let segments =
      List.map
        (fun j ->
          {
            p_index = int_field "index" j;
            p_first = int_field "first_seq" j;
            p_last = int_field "last_seq" j;
            p_head = hex_decode_field "head" j;
            p_mac = hex_decode_field "mac" j;
          })
        (list_field "segments" doc)
      |> List.sort (fun a b -> compare a.p_index b.p_index)
    in
    let doc_head = hex_decode_field "head" doc in
    let doc_final_mac = hex_decode_field "final_mac" doc in
    let quote_j = need "object" Json.member "quote" doc in
    (* 1. sequence discipline: record i must carry seq i *)
    let seq_check =
      let rec go i = function
        | [] -> None
        | r :: rest -> if r.seq <> i then Some i else go (i + 1) rest
      in
      go 0 records
    in
    (match seq_check with
    | Some index -> Error (Sequence_broken { index })
    | None ->
      (* 2. the segment list must tile [0, n) contiguously in order *)
      let rec tiles expected idx = function
        | [] -> if expected = n then None else Some idx
        | s :: rest ->
          if s.p_index <> idx || s.p_first <> expected || s.p_last < s.p_first
             || s.p_last >= n
          then Some idx
          else tiles (s.p_last + 1) (idx + 1) rest
      in
      (match tiles 0 0 segments with
      | Some segment -> Error (Coverage_gap { segment })
      | None when n > 0 && segments = [] -> Error (Coverage_gap { segment = 0 })
      | None ->
        (* 3. re-walk the chain segment by segment, checking each
           segment's recorded head and MAC as we cross its boundary *)
        let arr = Array.of_list records in
        let rec walk h = function
          | [] -> Ok h
          | s :: rest ->
            let h' = ref h in
            for i = s.p_first to s.p_last do
              h' := chain_step !h' (canonical arr.(i))
            done;
            if not (Bytes.equal !h' s.p_head) then
              Error (Chain_mismatch { segment = s.p_index })
            else if
              not
                (Hmac.equal
                   (segment_mac ~key ~index:s.p_index ~first_seq:s.p_first
                      ~last_seq:s.p_last ~prev_head:h ~head:!h')
                   s.p_mac)
            then Error (Segment_mac_mismatch { segment = s.p_index })
            else walk !h' rest
        in
        (match walk genesis_raw segments with
        | Error _ as e -> e
        | Ok head ->
          if not (Bytes.equal head doc_head) then Error Head_mismatch
          else if not (Hmac.equal (final_mac ~key ~count:n ~head) doc_final_mac)
          then Error Final_mac_mismatch
          else begin
            (* 4. the quote must be valid and bind exactly this head *)
            let quote =
              {
                Attestation.Quote.measurement = hex_decode_field "measurement" quote_j;
                report_data = hex_decode_field "report_data" quote_j;
                signature = hex_decode_field "signature" quote_j;
              }
            in
            let ias = Attestation.Ias.for_platform platform in
            let report = Attestation.Ias.verify ias quote in
            if not report.Attestation.Ias.ok then
              Error (Quote_mismatch "attestation service rejected the quote")
            else if not (Bytes.equal report.Attestation.Ias.measurement plane_measurement)
            then Error (Quote_mismatch "quote measurement is not the audit plane")
            else if not (Bytes.equal report.Attestation.Ias.report_data head) then
              Error (Quote_mismatch "quote report data is not the chain head")
            else Ok { n_records = n; n_segments = List.length segments }
          end)))
  with Bad m -> Error (Malformed m)
