(* The attested admission audit plane: hash-chain seal/verify round
   trips, detection of every tamper class (flip, drop, reorder,
   renumbered swap, truncation at a segment boundary, spliced segment,
   forged quote, wrong platform), the quote binding of a fan-out batch's
   chain head, and schedule independence of the record content multiset
   (K=1 vs K=4). *)

module Audit = Deflection_audit.Audit
module Gateway = Deflection_gateway.Gateway
module Session = Deflection.Session
module Bootstrap = Deflection.Bootstrap
module Policy = Deflection_policy.Policy
module Verifier = Deflection_verifier.Verifier
module Attestation = Deflection_attestation.Attestation
module Sha256 = Deflection_crypto.Sha256
module Json = Deflection_telemetry.Json

let platform () = Attestation.Platform.create ~seed:77L

let accepted_report i =
  Ok
    {
      Verifier.instructions_checked = 100 + i;
      store_annotations = 3;
      rsp_annotations = 2;
      cfi_annotations = 1;
      prologues = 1;
      epilogues = 1;
      ssa_checks = 4;
    }

let rejected_verdict =
  Error { Verifier.pass = Verifier.Scan; offset = 6; reason = "planted rejection" }

(* a log of [n] synthetic admissions: distinct measurements, one planted
   rejection at seq 2, lanes cycling over 2 workers *)
let sample_log ?(segment_records = 2) ?(n = 5) ?(tag = "binary") plat =
  let log = Audit.Log.create ~segment_records ~platform:plat () in
  for i = 0 to n - 1 do
    let verdict = if i = 2 then rejected_verdict else accepted_report i in
    ignore
      (Audit.Log.append log
         ~measurement:(Sha256.digest_string (Printf.sprintf "%s-%d" tag i))
         ~policies:Policy.Set.p1_p6 ~mode:Verifier.Descent ~ssa_q:20 ~verdict
         ~cache:(if i = 0 then Audit.Miss else Audit.Hit)
         ~lane:(i mod 2))
  done;
  log

let check_ok what plat doc =
  match Audit.verify ~platform:plat doc with
  | Ok s -> s
  | Error t -> Alcotest.failf "%s: unexpected tamper: %s" what (Audit.tamper_to_string t)

let check_tamper what expect plat doc =
  match Audit.verify ~platform:plat doc with
  | Ok _ -> Alcotest.failf "%s: tampered document verified clean" what
  | Error t ->
    if not (expect t) then
      Alcotest.failf "%s: wrong tamper class: %s" what (Audit.tamper_to_string t)

(* structural JSON surgery helpers: the adversary edits the sealed
   document on the untrusted host *)
let update name f = function
  | Json.Obj fields ->
    Json.Obj (List.map (fun (k, v) -> if k = name then (k, f v) else (k, v)) fields)
  | j -> j

let update_records f = update "records" (function Json.List l -> Json.List (f l) | j -> j)

let nth_str name j =
  match Json.member name j with Some (Json.Str s) -> s | _ -> Alcotest.failf "no %S" name

let test_seal_verify_roundtrip () =
  let plat = platform () in
  let log = sample_log plat in
  let s = check_ok "roundtrip" plat (Audit.Log.seal log) in
  Alcotest.(check int) "records" 5 s.Audit.n_records;
  (* 2 closed segments of 2 + the sealed trailing partial of 1 *)
  Alcotest.(check int) "segments" 3 s.Audit.n_segments

let test_text_roundtrip () =
  (* the document survives serialization to text and back — what the CLI
     writes is what `audit verify` re-walks *)
  let plat = platform () in
  let text = Json.to_string ~pretty:true (Audit.Log.seal (sample_log plat)) in
  match Json.parse text with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok doc -> ignore (check_ok "text roundtrip" plat doc)

let test_flip_detected () =
  let plat = platform () in
  let doc = Audit.Log.seal (sample_log plat) in
  let flipped =
    update_records (List.map (update "ssa_q" (function Json.Int q -> Json.Int (q + 1) | j -> j))) doc
  in
  check_tamper "field flip" (function Audit.Chain_mismatch _ -> true | _ -> false) plat flipped

let test_drop_detected () =
  let plat = platform () in
  let doc = Audit.Log.seal (sample_log plat) in
  let dropped = update_records (List.filteri (fun i _ -> i <> 2)) doc in
  check_tamper "record drop"
    (function Audit.Sequence_broken { index = 2 } -> true | _ -> false)
    plat dropped

let swap i j l =
  List.mapi (fun k x -> if k = i then List.nth l j else if k = j then List.nth l i else x) l

let test_reorder_detected () =
  let plat = platform () in
  let doc = Audit.Log.seal (sample_log plat) in
  let reordered = update_records (swap 1 2) doc in
  check_tamper "reorder" (function Audit.Sequence_broken _ -> true | _ -> false) plat reordered

let test_renumbered_swap_detected () =
  (* the adversary swaps two records AND patches their seq fields so the
     numbering looks clean — the chain still diverges *)
  let plat = platform () in
  let doc = Audit.Log.seal (sample_log plat) in
  let renumber i = update "seq" (fun _ -> Json.Int i) in
  let tampered =
    update_records (fun l -> List.mapi (fun i r -> renumber i r) (swap 1 2 l)) doc
  in
  check_tamper "renumbered swap"
    (function Audit.Chain_mismatch _ -> true | _ -> false)
    plat tampered

let test_truncation_at_segment_boundary () =
  (* the strongest truncation: cut exactly at a segment boundary and
     retarget the head, so chain, sequence and every remaining segment
     MAC all verify — only the closing MAC gives it away *)
  let plat = platform () in
  let doc = Audit.Log.seal (sample_log ~segment_records:2 ~n:4 plat) in
  let seg0_head =
    match Json.member "segments" doc with
    | Some (Json.List (s0 :: _)) -> nth_str "head" s0
    | _ -> Alcotest.fail "no segments"
  in
  let truncated =
    doc
    |> update_records (List.filteri (fun i _ -> i < 2))
    |> update "segments" (function Json.List (s0 :: _) -> Json.List [ s0 ] | j -> j)
    |> update "head" (fun _ -> Json.Str seg0_head)
  in
  check_tamper "truncation"
    (function Audit.Final_mac_mismatch -> true | _ -> false)
    plat truncated

let test_spliced_segment_detected () =
  (* graft a segment MAC from a second log sealed under the SAME
     platform: the key is right, the covered span is not *)
  let plat = platform () in
  let doc = Audit.Log.seal (sample_log plat) in
  let other = Audit.Log.seal (sample_log ~n:3 ~tag:"donor" plat) in
  let other_mac =
    match Json.member "segments" other with
    | Some (Json.List (s0 :: _)) -> nth_str "mac" s0
    | _ -> Alcotest.fail "no segments in donor log"
  in
  let spliced =
    update "segments"
      (function
        | Json.List (s0 :: rest) ->
          Json.List (update "mac" (fun _ -> Json.Str other_mac) s0 :: rest)
        | j -> j)
      doc
  in
  check_tamper "splice"
    (function Audit.Segment_mac_mismatch { segment = 0 } -> true | _ -> false)
    plat spliced

let test_forged_quote_detected () =
  let plat = platform () in
  let doc = Audit.Log.seal (sample_log plat) in
  let forged =
    update "quote"
      (update "signature" (function
        | Json.Str s ->
          let b = Bytes.of_string s in
          Bytes.set b 0 (if Bytes.get b 0 = '0' then '1' else '0');
          Json.Str (Bytes.to_string b)
        | j -> j))
      doc
  in
  check_tamper "forged quote" (function Audit.Quote_mismatch _ -> true | _ -> false) plat forged

let test_wrong_platform_rejected () =
  (* a verifier holding a different platform's keys must not accept the
     log — the sealing key never leaves the platform derivation *)
  let doc = Audit.Log.seal (sample_log (platform ())) in
  check_tamper "wrong platform"
    (function _ -> true)
    (Attestation.Platform.create ~seed:78L)
    doc

let test_seal_is_nondestructive () =
  let plat = platform () in
  let log = sample_log plat in
  let first = Audit.Log.seal log in
  ignore
    (Audit.Log.append log
       ~measurement:(Sha256.digest_string "late-binary")
       ~policies:Policy.Set.p1_p6 ~mode:Verifier.Descent ~ssa_q:20
       ~verdict:(accepted_report 9) ~cache:Audit.Miss
       ~lane:0);
  let second = Audit.Log.seal log in
  let a = check_ok "first seal" plat first in
  let b = check_ok "second seal" plat second in
  Alcotest.(check int) "first covers 5" 5 a.Audit.n_records;
  Alcotest.(check int) "second covers 6" 6 b.Audit.n_records

(* ---- integration with the gateway / session stack ---------------- *)

let compliant_src = "int main() { print_int(42); return 0; }"
let aborting_src = "int buf[4];\nint main() { buf[2000000] = 7; return 0; }"
let rejected_src = "int cell[8];\nint main() { cell[3] = 9; print_int(cell[3]); return 0; }"

let mixed_jobs n =
  List.init n (fun i ->
      let seed = Int64.of_int (1 + i) in
      match i mod 3 with
      | 0 -> Gateway.job ~label:(Printf.sprintf "ok-%d" i) ~seed compliant_src
      | 1 -> Gateway.job ~label:(Printf.sprintf "abort-%d" i) ~seed aborting_src
      | _ ->
        Gateway.job ~compile_policies:Policy.Set.p1
          ~label:(Printf.sprintf "reject-%d" i)
          ~seed rejected_src)

let batch_log ~k n =
  let plat = platform () in
  let log = Audit.Log.create ~platform:plat () in
  let cache = Verifier.Cache.create () in
  let config =
    {
      Bootstrap.default_config with
      Bootstrap.verifier_cache = Some cache;
      audit = Some { Audit.log; lane = 0 };
    }
  in
  let batch = Gateway.run_batch ~jobs:k ~config (mixed_jobs n) in
  (plat, log, batch)

let test_batch_head_binds_quote () =
  (* K=4: one record per session, the sealed chain head IS the quote's
     report data, and the whole document verifies *)
  let n = 8 in
  let plat, log, _ = batch_log ~k:4 n in
  let doc = Audit.Log.seal log in
  Alcotest.(check int) "one record per session" n (Audit.Log.length log);
  let head = nth_str "head" doc in
  let report_data =
    match Json.member "quote" doc with
    | Some q -> nth_str "report_data" q
    | None -> Alcotest.fail "no quote"
  in
  Alcotest.(check string) "report data is the chain head" head report_data;
  ignore (check_ok "k=4 batch" plat doc)

let test_content_multiset_schedule_independent () =
  (* the audited evidence is the same history whatever the fan-out:
     content keys (seq and lane zeroed) form equal multisets for K=1 and
     K=4, and the single-flight cache yields exactly one Miss per
     distinct (measurement, policies, ssa_q) key *)
  let n = 9 in
  let _, log1, _ = batch_log ~k:1 n in
  let _, log4, _ = batch_log ~k:4 n in
  let keys log = List.map Audit.content_key (Audit.Log.records log) |> List.sort compare in
  Alcotest.(check bool) "content multisets equal" true (keys log1 = keys log4);
  let misses log =
    List.length (List.filter (fun r -> r.Audit.cache = Audit.Miss) (Audit.Log.records log))
  in
  (* 3 distinct (source, policy) pairs in the mix *)
  Alcotest.(check int) "k=1 misses" 3 (misses log1);
  Alcotest.(check int) "k=4 misses" 3 (misses log4);
  List.iter
    (fun (r : Audit.record) ->
      match r.Audit.verdict with
      | Ok _ ->
        Alcotest.(check bool) "accepted is ok/abort" true
          (String.length r.Audit.measurement = 64)
      | Error rej ->
        Alcotest.(check string) "rejection preserves the pass" "scan"
          (Verifier.pass_label rej.Verifier.pass))
    (Audit.Log.records log4)

let test_session_standalone_audit () =
  (* a lone session (no gateway) still leaves evidence: one Uncached
     record on lane 0, and the sealed log verifies *)
  let plat = platform () in
  let log = Audit.Log.create ~platform:plat () in
  let outcome =
    Session.admit
      { Bootstrap.default_config with Bootstrap.audit = Some { Audit.log; lane = 0 } }
      ~source:compliant_src ~inputs:[]
  in
  (match outcome with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "session failed: %s" (Session.error_to_string e));
  match Audit.Log.records log with
  | [ r ] ->
    Alcotest.(check int) "lane 0" 0 r.Audit.lane;
    Alcotest.(check bool) "uncached" true (r.Audit.cache = Audit.Uncached);
    (match r.Audit.verdict with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "expected an acceptance");
    ignore (check_ok "standalone" plat (Audit.Log.seal log))
  | rs -> Alcotest.failf "expected 1 record, found %d" (List.length rs)

(* 60 statements of straight-line arithmetic: a q=20 enclave needs
   several SSA markers in that run *)
let straight_line_src =
  Printf.sprintf "int main() { int x = 1; %s print_int(x); return 0; }"
    (String.concat " " (List.init 60 (fun i -> Printf.sprintf "x = x * 3 + %d;" i)))

let test_measured_ssa_q_governs_p6 () =
  (* the provider compiles with a lax q and says so in the binary's
     header; the enclave's quote says q=20. P6 must be judged at the
     measured q: a rejection (exit 2), evidenced as such under q=20 *)
  let obj =
    match Deflection.Service.build ~ssa_q:1_000_000 straight_line_src with
    | Ok obj -> obj
    | Error e -> Alcotest.failf "compile: %a" Deflection_compiler.Frontend.pp_error e
  in
  let plat = platform () in
  let log = Audit.Log.create ~platform:plat () in
  let config =
    { Bootstrap.default_config with Bootstrap.audit = Some { Audit.log; lane = 0 } }
  in
  let outcome = Session.admit ~precompiled:obj config ~source:straight_line_src ~inputs:[] in
  Alcotest.(check int) "exit code 2" 2 (Session.process_exit_code outcome);
  (match outcome with
  | Error (Session.Verifier_rejection rej) ->
    Alcotest.(check string) "the SSA period check"
      "straight-line run exceeds the SSA inspection period" rej.Verifier.reason
  | Error e -> Alcotest.failf "wrong error: %s" (Session.error_to_string e)
  | Ok _ -> Alcotest.fail "lax-q binary admitted by a q=20 enclave");
  match Audit.Log.records log with
  | [ r ] ->
    Alcotest.(check int) "record carries the measured q" 20 r.Audit.ssa_q;
    (match r.Audit.verdict with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "audit log records an acceptance");
    ignore (check_ok "lax q" plat (Audit.Log.seal log))
  | rs -> Alcotest.failf "expected 1 record, found %d" (List.length rs)

let suite =
  [
    Alcotest.test_case "seal/verify round trip" `Quick test_seal_verify_roundtrip;
    Alcotest.test_case "text round trip" `Quick test_text_roundtrip;
    Alcotest.test_case "field flip detected" `Quick test_flip_detected;
    Alcotest.test_case "record drop detected" `Quick test_drop_detected;
    Alcotest.test_case "reorder detected" `Quick test_reorder_detected;
    Alcotest.test_case "renumbered swap detected" `Quick test_renumbered_swap_detected;
    Alcotest.test_case "truncation at segment boundary detected" `Quick
      test_truncation_at_segment_boundary;
    Alcotest.test_case "spliced segment detected" `Quick test_spliced_segment_detected;
    Alcotest.test_case "forged quote detected" `Quick test_forged_quote_detected;
    Alcotest.test_case "wrong platform rejected" `Quick test_wrong_platform_rejected;
    Alcotest.test_case "seal is non-destructive" `Quick test_seal_is_nondestructive;
    Alcotest.test_case "k=4 head binds the quote" `Quick test_batch_head_binds_quote;
    Alcotest.test_case "content multiset schedule-independent" `Quick
      test_content_multiset_schedule_independent;
    Alcotest.test_case "standalone session audit" `Quick test_session_standalone_audit;
    Alcotest.test_case "measured ssa_q governs P6" `Quick test_measured_ssa_q_governs_p6;
  ]
