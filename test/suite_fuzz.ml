(* The fuzzing subsystem's own tests: generator determinism, mutation
   replay, oracle verdicts, JSON round-trips, the shrinker's contract and
   the campaign's accounting. Everything here is fixed-seed — a red test
   reproduces byte-for-byte. *)

module Fuzz = Deflection_fuzz.Fuzz
module Gen = Deflection_fuzz.Gen
module Mutate = Deflection_fuzz.Mutate
module Monitor = Deflection_fuzz.Monitor
module Frontend = Deflection_compiler.Frontend
module Objfile = Deflection_isa.Objfile
module Codec = Deflection_isa.Codec
module Policy = Deflection_policy.Policy
module Annot = Deflection_annot.Annot
module Json = Deflection_telemetry.Json

let compile_exn ?(policies = Policy.Set.p1_p6) src =
  Frontend.compile_exn ~policies ~ssa_q:20 src

(* ------------------------------------------------------------------ *)
(* Layer 1: the program generator *)

let test_generator_deterministic () =
  let a = Gen.generate ~seed:42L and b = Gen.generate ~seed:42L in
  Alcotest.(check string) "same source" a.Gen.source b.Gen.source;
  Alcotest.(check (list string)) "same inputs"
    (List.map Bytes.to_string a.Gen.inputs)
    (List.map Bytes.to_string b.Gen.inputs)

let test_generator_seeds_differ () =
  let srcs =
    List.map (fun s -> (Gen.generate ~seed:(Int64.of_int s)).Gen.source) [ 1; 2; 3; 4; 5 ]
  in
  let distinct = List.sort_uniq compare srcs in
  Alcotest.(check bool) "five seeds give several programs" true (List.length distinct >= 4)

let test_generated_programs_compile () =
  for s = 1 to 10 do
    let g = Gen.generate ~seed:(Int64.of_int s) in
    match Frontend.compile ~policies:Policy.Set.p1_p6 ~ssa_q:20 g.Gen.source with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "seed %d does not compile: %a" s Frontend.pp_error e
  done

let test_program_cases_clean () =
  for s = 1 to 12 do
    match Fuzz.run_case (Fuzz.Program { seed = Int64.of_int s }) with
    | Ok Fuzz.Accepted_ran -> ()
    | Ok Fuzz.Rejected_static -> Alcotest.failf "seed %d: program case rejected" s
    | Error f -> Alcotest.failf "seed %d: %s: %s" s (Fuzz.failure_kind_label f.Fuzz.kind) f.Fuzz.detail
  done

(* ------------------------------------------------------------------ *)
(* Layer 2: the binary mutator *)

let all_kinds =
  [
    Mutate.Byte_flip { pos = 17; bit = 3 };
    Mutate.Byte_set { pos = 4; value = 0xC3 };
    Mutate.Nop_instr { idx = 2 };
    Mutate.Swap_instrs { idx = 9 };
    Mutate.Corrupt_magic { idx = 1; delta = 8L };
    Mutate.Splice_store { idx = 5; addr = 0x41414141L };
    Mutate.Retarget_branch { idx = 0; delta = -3 };
    Mutate.Inflate_branch_table { count = 7 };
    Mutate.Drop_symbol { idx = 3 };
    Mutate.Lie_ssa_q { q = 4 };
  ]

let test_mutation_labels_distinct () =
  let labels = List.map Mutate.label all_kinds in
  Alcotest.(check int) "ten distinct labels" 10 (List.length (List.sort_uniq compare labels))

let test_mutation_apply_deterministic () =
  let base = compile_exn {|int g[4]; int main() { g[1] = 5; print_int(g[1]); return 0; }|} in
  let muts = all_kinds in
  let a = Mutate.apply base muts and b = Mutate.apply base muts in
  Alcotest.(check bool) "equal text" true (Bytes.equal a.Objfile.text b.Objfile.text);
  Alcotest.(check bool) "base untouched" true
    (Bytes.equal base.Objfile.text (compile_exn {|int g[4]; int main() { g[1] = 5; print_int(g[1]); return 0; }|}).Objfile.text)

let test_mutation_kind_json_roundtrip () =
  List.iter
    (fun k ->
      match Mutate.kind_of_json (Mutate.kind_to_json k) with
      | Ok k' -> Alcotest.(check bool) (Mutate.label k ^ " roundtrips") true (k = k')
      | Error e -> Alcotest.failf "%s: %s" (Mutate.label k) e)
    all_kinds

let test_mutation_kind_json_rejects_garbage () =
  (match Mutate.kind_of_json (Json.Obj [ ("kind", Json.Str "warp_core_breach") ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown mutation kind accepted");
  match Mutate.kind_of_json (Json.Str "byte_flip") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-object mutation accepted"

let test_find_magic () =
  let obj = compile_exn {|int g[2]; int main() { g[0] = 7; return 0; }|} in
  (match Mutate.find_magic obj Annot.store_lower_magic with
  | Some _ -> ()
  | None -> Alcotest.fail "store_lower_magic not found in an instrumented binary");
  let bare = compile_exn ~policies:Policy.Set.none {|int main() { return 0; }|} in
  Alcotest.(check bool) "no store magic in a bare binary" true
    (Mutate.find_magic bare Annot.store_lower_magic = None)

(* corrupting the guarded store's bounds magic must be caught statically *)
let test_known_bad_mutant_rejected () =
  let obj = compile_exn {|int g[2]; int main() { g[0] = 7; return 0; }|} in
  let idx =
    match Mutate.find_magic obj Annot.store_lower_magic with
    | Some i -> i
    | None -> Alcotest.fail "no store magic"
  in
  let mutant = Mutate.apply obj [ Mutate.Corrupt_magic { idx; delta = 8L } ] in
  match Monitor.run ~policies:Policy.Set.p1_p6 mutant with
  | Monitor.Rejected _ -> ()
  | Monitor.Load_refused d -> Alcotest.failf "loader, not verifier, refused: %s" d
  | Monitor.Executed _ -> Alcotest.fail "corrupted store annotation accepted"

let test_monitor_runs_clean_program () =
  let obj = compile_exn {|int main() { print_int(41 + 1); return 0; }|} in
  match Monitor.run ~policies:Policy.Set.p1_p6 obj with
  | Monitor.Executed e ->
    Alcotest.(check (option int64)) "exit 0" (Some 0L) e.Monitor.exit_code;
    Alcotest.(check (list string)) "output" [ "42" ] e.Monitor.outputs;
    Alcotest.(check int) "no violations" 0 (List.length e.Monitor.violations);
    Alcotest.(check int) "no leaks" 0 e.Monitor.leaked_bytes
  | Monitor.Rejected r -> Alcotest.failf "rejected: %a" Deflection_verifier.Verifier.pp_rejection r
  | Monitor.Load_refused d -> Alcotest.failf "load refused: %s" d

(* the header's q is a claim, not the contract: a binary whose header
   understates q is judged at the enclave's measured q, like the honest
   compiler output it otherwise is *)
let test_header_q_lie_admitted () =
  match
    Fuzz.run_case (Fuzz.Mutant { prog_seed = 1L; mutations = [ Mutate.Lie_ssa_q { q = 1 } ] })
  with
  | Ok Fuzz.Accepted_ran -> ()
  | Ok Fuzz.Rejected_static -> Alcotest.fail "header q lie changed the verdict"
  | Error f -> Alcotest.failf "%s: %s" (Fuzz.failure_kind_label f.Fuzz.kind) f.Fuzz.detail

(* and the converse: a lax q in the header does not buy a lax P6 *)
let test_monitor_judges_at_measured_q () =
  let src =
    Printf.sprintf "int main() { int x = 1; %s print_int(x); return 0; }"
      (String.concat " " (List.init 60 (fun i -> Printf.sprintf "x = x * 3 + %d;" i)))
  in
  let obj = Frontend.compile_exn ~policies:Policy.Set.p1_p6 ~ssa_q:1_000_000 src in
  match Monitor.run ~policies:Policy.Set.p1_p6 obj with
  | Monitor.Rejected r ->
    Alcotest.(check string) "the SSA period check"
      "straight-line run exceeds the SSA inspection period"
      r.Deflection_verifier.Verifier.reason
  | Monitor.Load_refused d -> Alcotest.failf "loader, not verifier, refused: %s" d
  | Monitor.Executed _ -> Alcotest.fail "lax-q binary admitted at the measured q"

let test_mutant_cases_fail_closed () =
  for s = 1 to 10 do
    let case =
      Fuzz.Mutant
        {
          prog_seed = Int64.of_int s;
          mutations = [ Mutate.Byte_flip { pos = s * 13; bit = s mod 8 } ];
        }
    in
    match Fuzz.run_case case with
    | Ok _ -> ()
    | Error f -> Alcotest.failf "seed %d: %s: %s" s (Fuzz.failure_kind_label f.Fuzz.kind) f.Fuzz.detail
  done

(* ------------------------------------------------------------------ *)
(* Case serialization (the replay contract) *)

let roundtrip_case name c =
  (* through the printer and parser, as a replay file would travel *)
  match Json.parse (Json.to_string (Fuzz.case_to_json c)) with
  | Error e -> Alcotest.failf "%s: reparse failed: %s" name e
  | Ok j -> (
    match Fuzz.case_of_json j with
    | Ok c' -> Alcotest.(check bool) (name ^ " roundtrips") true (c = c')
    | Error e -> Alcotest.failf "%s: %s" name e)

let test_case_json_program () = roundtrip_case "program" (Fuzz.Program { seed = -9223372036854775807L })

let test_case_json_program_src () =
  roundtrip_case "program_src"
    (Fuzz.Program_src
       {
         source = "int main() { return 0; }";
         inputs = [ Bytes.of_string "\x00\xff\x7f\"binary\"\n"; Bytes.create 0 ];
       })

let test_case_json_mutant () =
  roundtrip_case "mutant" (Fuzz.Mutant { prog_seed = 77L; mutations = all_kinds })

let all_wkinds =
  [
    Mutate.Wflip_digest;
    Mutate.Wshift_boundary { idx = 4 };
    Mutate.Wdrop_boundary { idx = 11 };
    Mutate.Womit_site { idx = 0 };
    Mutate.Wshift_extent { idx = 2 };
    Mutate.Wrelabel_site { idx = 6 };
    Mutate.Wlie_branch { idx = 1; delta = -5 };
    Mutate.Wmid_leader { idx = 9 };
    Mutate.Wstale_text { pos = 31; bit = 6 };
  ]

let test_wmutation_labels_distinct () =
  let labels = List.map Mutate.wlabel all_wkinds in
  Alcotest.(check int) "nine distinct labels" 9 (List.length (List.sort_uniq compare labels))

let test_wmutation_kind_json_roundtrip () =
  List.iter
    (fun k ->
      match Mutate.wkind_of_json (Mutate.wkind_to_json k) with
      | Ok k' -> Alcotest.(check bool) (Mutate.wlabel k ^ " roundtrips") true (k = k')
      | Error e -> Alcotest.failf "%s: %s" (Mutate.wlabel k) e)
    all_wkinds

let test_case_json_witness_mutant () =
  roundtrip_case "witness_mutant"
    (Fuzz.Witness_mutant { prog_seed = -3L; wmutations = all_wkinds })

let test_case_json_rejects_garbage () =
  (match Fuzz.case_of_json (Json.Obj [ ("type", Json.Str "quine") ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown case type accepted");
  match Fuzz.case_of_json (Json.Obj [ ("type", Json.Str "program"); ("seed", Json.Bool true) ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "boolean seed accepted"

let test_failure_kind_labels () =
  let labels =
    List.map Fuzz.failure_kind_label
      [ Fuzz.False_positive; Fuzz.Divergence; Fuzz.Soundness; Fuzz.Harness_error ]
  in
  Alcotest.(check (list string)) "stable labels"
    [ "false_positive"; "divergence"; "soundness"; "harness_error" ]
    labels

(* ------------------------------------------------------------------ *)
(* Oracle verdicts on hand-built cases *)

let test_non_compiling_source_is_harness_error () =
  match Fuzz.run_case (Fuzz.Program_src { source = "int main( {"; inputs = [] }) with
  | Error { Fuzz.kind = Fuzz.Harness_error; _ } -> ()
  | Error f -> Alcotest.failf "wrong kind: %s" (Fuzz.failure_kind_label f.Fuzz.kind)
  | Ok _ -> Alcotest.fail "garbage source passed the oracle"

(* a tiny instruction budget turns a fine program into a Divergence — the
   deliberate failure the replay/shrink machinery is tested against *)
let divergence_instr_limit = 200

let divergent_case =
  Fuzz.Program_src
    {
      source =
        "int main() {\n\
        \  int s = 0;\n\
        \  for (int i = 0; i < 200; i = i + 1) { s = s + i; }\n\
        \  print_int(s);\n\
        \  return 0;\n\
         }\n";
      inputs = [];
    }

let expect_divergence case =
  match Fuzz.run_case ~instr_limit:divergence_instr_limit case with
  | Error ({ Fuzz.kind = Fuzz.Divergence; _ } as f) -> f
  | Error f -> Alcotest.failf "wrong kind: %s: %s" (Fuzz.failure_kind_label f.Fuzz.kind) f.Fuzz.detail
  | Ok _ -> Alcotest.fail "expected a divergence"

let test_deliberate_divergence_detected () =
  let f = expect_divergence divergent_case in
  Alcotest.(check bool) "mentions the abnormal exit" true
    (String.length f.Fuzz.detail > 0)

let test_divergence_replays_byte_identically () =
  let f = expect_divergence divergent_case in
  (* serialize the failing case, reparse it, re-run: same verdict *)
  let serialized = Json.to_string (Fuzz.case_to_json f.Fuzz.case) in
  (match Json.parse serialized with
  | Error e -> Alcotest.failf "reparse: %s" e
  | Ok j -> (
    match Fuzz.case_of_json j with
    | Error e -> Alcotest.failf "case_of_json: %s" e
    | Ok case ->
      let f' = expect_divergence case in
      Alcotest.(check string) "identical detail" f.Fuzz.detail f'.Fuzz.detail));
  Alcotest.(check string) "serialization is stable" serialized
    (Json.to_string (Fuzz.case_to_json f.Fuzz.case))

let test_shrink_preserves_kind_and_shrinks () =
  let f = expect_divergence divergent_case in
  let shrunk = Fuzz.shrink ~instr_limit:divergence_instr_limit f in
  Alcotest.(check string) "kind preserved" (Fuzz.failure_kind_label f.Fuzz.kind)
    (Fuzz.failure_kind_label shrunk.Fuzz.kind);
  (match (f.Fuzz.case, shrunk.Fuzz.case) with
  | Fuzz.Program_src { source = orig; _ }, Fuzz.Program_src { source = small; _ } ->
    Alcotest.(check bool) "no larger than the original" true
      (String.length small <= String.length orig);
    (* the loop is what diverges; the shrinker must not drop it *)
    Alcotest.(check bool) "loop retained" true
      (String.length small >= String.length "int main(){for(;;);}")
  | _ -> Alcotest.fail "shrunk program case is not Program_src");
  (* and the shrunk case still reproduces *)
  ignore (expect_divergence shrunk.Fuzz.case)

let test_shrink_nonreproducing_failure_is_identity () =
  (* a fabricated failure whose case is actually clean: the shrinker must
     return it unchanged and must not raise *)
  let f =
    {
      Fuzz.case = Fuzz.Program { seed = 3L };
      kind = Fuzz.Soundness;
      detail = "fabricated";
    }
  in
  let s = Fuzz.shrink f in
  (* a program case is reported in its replayable Program_src form, but
     since no candidate reproduces, the source must be the seed's own *)
  (match s.Fuzz.case with
  | Fuzz.Program_src { source; _ } ->
    Alcotest.(check string) "source unchanged" (Gen.generate ~seed:3L).Gen.source source
  | Fuzz.Program _ -> ()
  | Fuzz.Mutant _ | Fuzz.Witness_mutant _ -> Alcotest.fail "case changed shape");
  Alcotest.(check string) "detail kept" f.Fuzz.detail s.Fuzz.detail

let test_shrink_mutant_drops_mutations () =
  let obj = compile_exn {|int g[2]; int main() { g[0] = 7; return 0; }|} in
  let idx =
    match Mutate.find_magic obj Annot.store_lower_magic with
    | Some i -> i
    | None -> Alcotest.fail "no store magic"
  in
  (* a Soundness-free failing mutant is hard to fabricate, so exercise the
     mutation-sublist shrinker through run_case + shrink on a case whose
     failure is a harness-level one: an absurd mutation list on a seed
     program still fails closed, so instead check the documented contract
     on a known static rejection — shrink of a *clean* mutant case wrapped
     as a failure stays put *)
  let f =
    {
      Fuzz.case =
        Fuzz.Mutant
          {
            prog_seed = 1L;
            mutations =
              [
                Mutate.Corrupt_magic { idx; delta = 8L };
                Mutate.Nop_instr { idx = 0 };
                Mutate.Byte_flip { pos = 3; bit = 1 };
              ];
          };
      kind = Fuzz.Soundness;
      detail = "fabricated";
    }
  in
  let s = Fuzz.shrink f in
  match s.Fuzz.case with
  | Fuzz.Mutant { mutations; _ } ->
    Alcotest.(check bool) "mutation list not grown" true (List.length mutations <= 3)
  | _ -> Alcotest.fail "mutant case changed shape"

(* Regression: found (and shrunk to one mutation) by the 500-mutant
   campaign at base seed 1. The byte overwrite corrupts a branch
   displacement so the verifier's scan reaches a negative text offset;
   the codec used to raise an unstructured [Invalid_argument] there
   instead of letting the verifier reject the binary. *)
let test_regression_negative_scan_offset_rejected () =
  let case =
    Fuzz.Mutant
      {
        prog_seed = 7728243122671280270L;
        mutations = [ Mutate.Byte_set { pos = 627857; value = 208 } ];
      }
  in
  match Fuzz.run_case case with
  | Ok Fuzz.Rejected_static -> ()
  | Ok Fuzz.Accepted_ran -> Alcotest.fail "corrupted branch accepted"
  | Error f -> Alcotest.failf "%s: %s" (Fuzz.failure_kind_label f.Fuzz.kind) f.Fuzz.detail

(* ------------------------------------------------------------------ *)
(* Campaign accounting and the report schema *)

let small_campaign =
  lazy (Fuzz.campaign ~base_seed:7L ~programs:6 ~mutants:6 ~witness_mutants:6 ())

let test_campaign_accounting () =
  let r = Lazy.force small_campaign in
  Alcotest.(check int) "all programs counted" 6 r.Fuzz.programs;
  Alcotest.(check int) "all programs clean" 6 r.Fuzz.programs_clean;
  Alcotest.(check int) "all mutants counted" 6 r.Fuzz.mutants;
  Alcotest.(check int) "mutants partition" 6 (r.Fuzz.mutants_rejected + r.Fuzz.mutants_clean);
  Alcotest.(check int) "all witness mutants counted" 6 r.Fuzz.witness_mutants;
  Alcotest.(check int) "witness mutants partition" 6
    (r.Fuzz.wmutants_rejected + r.Fuzz.wmutants_clean);
  Alcotest.(check bool) "some doctored witnesses rejected" true (r.Fuzz.wmutants_rejected > 0);
  Alcotest.(check bool) "some instructions verified" true (r.Fuzz.verified_instructions > 0);
  Alcotest.(check int) "no failures" 0 (List.length r.Fuzz.failures)

let test_campaign_selftests () =
  let r = Lazy.force small_campaign in
  Alcotest.(check bool) "rejection self-test caught" true r.Fuzz.selftest_rejection_caught;
  Alcotest.(check bool) "monitor self-test caught" true r.Fuzz.selftest_monitor_caught;
  Alcotest.(check bool) "witness self-test caught" true r.Fuzz.selftest_witness_caught

let test_campaign_deterministic () =
  let a = Lazy.force small_campaign in
  let b = Fuzz.campaign ~base_seed:7L ~programs:6 ~mutants:6 ~witness_mutants:6 () in
  Alcotest.(check string) "identical reports"
    (Json.to_string (Fuzz.report_to_json a))
    (Json.to_string (Fuzz.report_to_json b))

let test_report_json_schema () =
  let r = Lazy.force small_campaign in
  match Json.parse (Json.to_string ~pretty:true (Fuzz.report_to_json r)) with
  | Error e -> Alcotest.failf "report does not reparse: %s" e
  | Ok j ->
    (match Json.member "schema" j with
    | Some (Json.Str s) -> Alcotest.(check string) "schema tag" Fuzz.schema s
    | _ -> Alcotest.fail "schema field missing");
    (match Json.member "base_seed" j with
    | Some (Json.Str s) -> Alcotest.(check string) "seed as int64 string" "7" s
    | _ -> Alcotest.fail "base_seed missing or not a string");
    List.iter
      (fun field ->
        match Json.member field j with
        | Some (Json.Int _) -> ()
        | _ -> Alcotest.failf "%s missing or not an int" field)
      [ "programs"; "mutants"; "witness_mutants"; "programs_clean"; "mutants_rejected";
        "mutants_clean"; "wmutants_rejected"; "wmutants_clean"; "verified_instructions";
        "failure_count" ]

let suite =
  [
    Alcotest.test_case "generator deterministic" `Quick test_generator_deterministic;
    Alcotest.test_case "generator seeds differ" `Quick test_generator_seeds_differ;
    Alcotest.test_case "generated programs compile" `Quick test_generated_programs_compile;
    Alcotest.test_case "program cases clean" `Quick test_program_cases_clean;
    Alcotest.test_case "mutation labels distinct" `Quick test_mutation_labels_distinct;
    Alcotest.test_case "mutation apply deterministic" `Quick test_mutation_apply_deterministic;
    Alcotest.test_case "mutation kind json roundtrip" `Quick test_mutation_kind_json_roundtrip;
    Alcotest.test_case "mutation kind json rejects garbage" `Quick test_mutation_kind_json_rejects_garbage;
    Alcotest.test_case "find magic" `Quick test_find_magic;
    Alcotest.test_case "known-bad mutant rejected" `Quick test_known_bad_mutant_rejected;
    Alcotest.test_case "monitor runs clean program" `Quick test_monitor_runs_clean_program;
    Alcotest.test_case "mutant cases fail closed" `Quick test_mutant_cases_fail_closed;
    Alcotest.test_case "header q lie admitted" `Quick test_header_q_lie_admitted;
    Alcotest.test_case "monitor judges at measured q" `Quick test_monitor_judges_at_measured_q;
    Alcotest.test_case "case json program" `Quick test_case_json_program;
    Alcotest.test_case "case json program_src" `Quick test_case_json_program_src;
    Alcotest.test_case "case json mutant" `Quick test_case_json_mutant;
    Alcotest.test_case "witness mutation labels distinct" `Quick test_wmutation_labels_distinct;
    Alcotest.test_case "witness mutation kind json roundtrip" `Quick test_wmutation_kind_json_roundtrip;
    Alcotest.test_case "case json witness mutant" `Quick test_case_json_witness_mutant;
    Alcotest.test_case "case json rejects garbage" `Quick test_case_json_rejects_garbage;
    Alcotest.test_case "failure kind labels" `Quick test_failure_kind_labels;
    Alcotest.test_case "non-compiling source is harness error" `Quick test_non_compiling_source_is_harness_error;
    Alcotest.test_case "deliberate divergence detected" `Quick test_deliberate_divergence_detected;
    Alcotest.test_case "divergence replays byte-identically" `Quick test_divergence_replays_byte_identically;
    Alcotest.test_case "shrink preserves kind and shrinks" `Quick test_shrink_preserves_kind_and_shrinks;
    Alcotest.test_case "shrink of non-reproducing failure is identity" `Quick test_shrink_nonreproducing_failure_is_identity;
    Alcotest.test_case "shrink mutant drops mutations" `Quick test_shrink_mutant_drops_mutations;
    Alcotest.test_case "regression: negative scan offset rejected" `Quick
      test_regression_negative_scan_offset_rejected;
    Alcotest.test_case "campaign accounting" `Quick test_campaign_accounting;
    Alcotest.test_case "campaign selftests" `Quick test_campaign_selftests;
    Alcotest.test_case "campaign deterministic" `Quick test_campaign_deterministic;
    Alcotest.test_case "report json schema" `Quick test_report_json_schema;
  ]
