(* The chaos library and the fail-closed resilience machinery:
   plan determinism and serialization, parser hardening under seeded
   mutation fuzz, PRNG stream-splitting independence, SSA save
   round-trips across injected AEXes, retry/backoff/timeout semantics,
   graceful telemetry degradation, and the campaign-level oracle
   (zero violations, byte-identical replay). *)

module Chaos = Deflection_chaos.Chaos
module Oracle = Deflection_chaos.Oracle
module Resilience = Deflection_chaos.Resilience
module Campaign = Deflection.Campaign
module Session = Deflection.Session
module Prng = Deflection_util.Prng
module Quote = Deflection_attestation.Attestation.Quote
module Objfile = Deflection_isa.Objfile
module Asm = Deflection_isa.Asm
module Isa = Deflection_isa.Isa
module Layout = Deflection_enclave.Layout
module Memory = Deflection_enclave.Memory
module Interp = Deflection_runtime.Interp
module Channel = Deflection_crypto.Channel
module Telemetry = Deflection_telemetry.Telemetry
module Json = Deflection_telemetry.Json

(* ------------------------------------------------------------------ *)
(* Plans: determinism and serialization *)

let test_plan_determinism () =
  for i = 0 to 49 do
    let seed = Int64.of_int (1000 + i) in
    let a = Chaos.generate ~seed and b = Chaos.generate ~seed in
    Alcotest.(check bool) "equal seeds, equal plans" true (a = b);
    let n = List.length a.Chaos.faults in
    Alcotest.(check bool) "1-3 faults" true (n >= 1 && n <= 3)
  done;
  (* different seeds produce different plans at least sometimes *)
  let distinct =
    List.sort_uniq compare
      (List.init 20 (fun i -> Chaos.generate ~seed:(Int64.of_int (500 + i))))
  in
  Alcotest.(check bool) "seeds vary plans" true (List.length distinct > 10)

let test_plan_json_roundtrip () =
  for i = 0 to 99 do
    let plan = Chaos.generate ~seed:(Int64.of_int (7000 + i)) in
    match Chaos.plan_of_json (Chaos.plan_to_json plan) with
    | Ok p -> Alcotest.(check bool) "round-trips" true (p = plan)
    | Error e -> Alcotest.failf "plan %d failed to round-trip: %s" i e
  done;
  (* garbage JSON is refused, not raised on *)
  (match Chaos.plan_of_json (Json.Str "nope") with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  match Chaos.plan_of_json (Json.Obj [ ("seed", Json.Str "not-a-number") ]) with
  | Ok _ -> Alcotest.fail "bad seed accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Engine semantics *)

let test_engine_one_shot () =
  let plan =
    {
      Chaos.seed = 3L;
      faults = [ Chaos.Channel_fault { site = Chaos.Deliver_binary; action = Chaos.Drop } ];
    }
  in
  let e = Chaos.of_plan plan in
  let m = Bytes.of_string "sealed-record" in
  Alcotest.(check bool) "first transmission dropped" true
    (Chaos.transport e ~site:Chaos.Deliver_binary m = []);
  Alcotest.(check bool) "second transmission clean" true
    (Chaos.transport e ~site:Chaos.Deliver_binary m = [ m ]);
  Alcotest.(check bool) "other sites untouched" true
    (Chaos.transport e ~site:Chaos.Upload_data m = [ m ]);
  let fired = Chaos.fired e in
  Alcotest.(check int) "histogram counts the drop" 1
    (List.assoc (Chaos.site_label Chaos.Deliver_binary) fired)

let test_engine_disabled_inert () =
  let m = Bytes.of_string "x" in
  Alcotest.(check bool) "transport is identity" true
    (Chaos.transport Chaos.disabled ~site:Chaos.Upload_data m = [ m ]);
  Alcotest.(check bool) "quote pass-through" true
    (Chaos.corrupt_quote Chaos.disabled ~site:Chaos.Provider_quote m == m);
  Alcotest.(check bool) "no ocall failures" false (Chaos.ocall_fails Chaos.disabled);
  Alcotest.(check bool) "no overrides" true
    (Chaos.aex_interval_override Chaos.disabled = None
    && Chaos.fuel_override Chaos.disabled = None)

let test_engine_ocall_arming () =
  let plan =
    { Chaos.seed = 4L; faults = [ Chaos.Ocall_fail { nth = 2; times = 2 } ] }
  in
  let e = Chaos.of_plan plan in
  Alcotest.(check bool) "attempt 1 clean" false (Chaos.ocall_fails e);
  Alcotest.(check bool) "attempt 2 fails (arms)" true (Chaos.ocall_fails e);
  Alcotest.(check bool) "attempt 3 fails (burning)" true (Chaos.ocall_fails e);
  Alcotest.(check bool) "attempt 4 clean again" false (Chaos.ocall_fails e)

(* ------------------------------------------------------------------ *)
(* Satellite: untrusted parsers return Error, never raise, on garbage *)

let mutate rng original =
  let b = Bytes.copy original in
  let len = Bytes.length b in
  match Prng.int rng 4 with
  | 0 ->
    (* single bit flip *)
    let i = Prng.int rng len in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Prng.int rng 8)));
    b
  | 1 -> Bytes.sub b 0 (Prng.int rng len) (* truncation *)
  | 2 -> Prng.bytes rng (Prng.int rng (len * 2)) (* pure noise *)
  | _ ->
    (* splice noise into the middle *)
    let at = Prng.int rng len in
    let chunk = Prng.bytes rng (1 + Prng.int rng 32) in
    Bytes.cat (Bytes.sub b 0 at) (Bytes.cat chunk (Bytes.sub b at (len - at)))

let test_quote_fuzz () =
  let platform = Deflection_attestation.Attestation.Platform.create ~seed:5L in
  let q =
    Deflection_attestation.Attestation.Platform.quote platform
      ~measurement:(Bytes.make 32 'm') ~report_data:(Bytes.make 32 'r')
  in
  let good = Quote.serialize q in
  (match Quote.deserialize good with
  | Ok q' -> Alcotest.(check bool) "valid quote parses" true (q' = q)
  | Error e -> Alcotest.failf "valid quote rejected: %s" e);
  let rng = Prng.create 6L in
  for i = 0 to 999 do
    let garbled = mutate rng good in
    match Quote.deserialize garbled with
    | Ok _ | Error _ -> ()
    | exception e ->
      Alcotest.failf "mutation %d raised %s" i (Printexc.to_string e)
  done

let test_objfile_fuzz () =
  let obj =
    Result.get_ok
      (Session.compile_only
         "int main() { int x = 1; print_int(x); return 0; }")
  in
  let good = Objfile.serialize obj in
  (match Objfile.deserialize good with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "valid objfile rejected: %s" e);
  let rng = Prng.create 8L in
  for i = 0 to 999 do
    let garbled = mutate rng good in
    match Objfile.deserialize garbled with
    | Ok _ | Error _ -> ()
    | exception e ->
      Alcotest.failf "mutation %d raised %s" i (Printexc.to_string e)
  done

let test_sealed_record_fuzz () =
  (* a garbled sealed record must fail authentication — the documented
     Auth_failure — and never any other exception *)
  let tx = Channel.create ~key:(Bytes.make 32 'k') in
  let good = Channel.seal tx (Bytes.of_string "plaintext payload") in
  let rng = Prng.create 9L in
  for i = 0 to 999 do
    let rx = Channel.create ~key:(Bytes.make 32 'k') in
    let garbled = mutate rng good in
    if garbled <> good then
      match Channel.open_ rx garbled with
      | _ -> Alcotest.failf "mutation %d authenticated" i
      | exception Channel.Auth_failure -> ()
      | exception e ->
        Alcotest.failf "mutation %d raised %s" i (Printexc.to_string e)
  done

(* ------------------------------------------------------------------ *)
(* Satellite: PRNG stream-splitting independence *)

let test_prng_stream_independence () =
  let seed = 99L in
  (* deriving different labels yields unrelated streams *)
  let a = Prng.create (Prng.derive seed ~label:"aex-jitter") in
  let b = Prng.create (Prng.derive seed ~label:"chaos-engine") in
  let sa = List.init 32 (fun _ -> Prng.next_int64 a) in
  let sb = List.init 32 (fun _ -> Prng.next_int64 b) in
  Alcotest.(check bool) "streams differ" true (sa <> sb);
  (* the derivation is a pure function: consuming one stream cannot
     perturb another derived later *)
  let fresh = Prng.create (Prng.derive seed ~label:"aex-jitter") in
  let sa' = List.init 32 (fun _ -> Prng.next_int64 fresh) in
  Alcotest.(check bool) "derivation independent of other draws" true (sa = sa');
  Alcotest.(check bool) "split differs from parent continuation" true
    (let p = Prng.create seed in
     let child = Prng.split p ~label:"x" in
     Prng.next_int64 child <> Prng.next_int64 p)

let aex_src =
  {|
int buf[8];
int main() {
  int n = recv(buf, 8);
  int s = 0;
  for (int i = 0; i < 1000; i = i + 1) { s = s + i; }
  print_int(s + n);
  send(buf, n);
  return 0;
}
|}

let test_chaos_does_not_perturb_aex_stream () =
  (* same session seed, busy AEX schedule; a chaos fault at a disjoint
     site (a quote corruption, retried and healed before execution)
     must leave the execution's AEX trace and cycle count identical *)
  let interp = { Interp.default_config with Interp.aex_interval = Some 500 } in
  let inputs = [ Bytes.of_string "\x01\x02" ] in
  let reference =
    Result.get_ok (Session.run ~interp ~seed:42L ~source:aex_src ~inputs ())
  in
  let plan =
    {
      Chaos.seed = 11L;
      faults = [ Chaos.Quote_corrupt { site = Chaos.Provider_quote } ];
    }
  in
  let subject =
    Result.get_ok
      (Session.admit ~chaos:(Chaos.of_plan plan)
         { Deflection.Bootstrap.default_config with interp; seed = 42L }
         ~source:aex_src ~inputs)
  in
  Alcotest.(check bool) "the fault actually fired (attest retried)" true
    (List.exists
       (fun (s : Resilience.stage_stats) -> s.Resilience.retries > 0)
       subject.Session.retries);
  Alcotest.(check int) "same AEX count" reference.Session.aexes subject.Session.aexes;
  Alcotest.(check int) "same cycles" reference.Session.cycles subject.Session.cycles;
  Alcotest.(check bool) "same outputs" true
    (reference.Session.outputs = subject.Session.outputs)

(* ------------------------------------------------------------------ *)
(* Satellite: SSA save round-trips across an AEX at every boundary *)

let ssa_items =
  Isa.
    [
      Asm.Ins (Mov (Reg RAX, Imm 10L));
      Asm.Ins (Mov (Reg RBX, Imm 4L));
      Asm.Ins (Binop (Imul, Reg RAX, Reg RBX));
      Asm.Ins (Binop (Sub, Reg RAX, Imm 41L));
      (* rax = -1: sets SF/CF-relevant state via the cmp below *)
      Asm.Ins (Cmp (Reg RAX, Imm 1L));
      Asm.Ins (Binop (Add, Reg RAX, Imm 43L));
      Asm.Ins (Binop (Xor, Reg RBX, Reg RBX));
      Asm.Ins (Cmp (Reg RBX, Imm 0L));
      Asm.Ins Hlt;
    ]

let setup_interp () =
  let layout = Layout.make Layout.small_config in
  let mem = Memory.create layout in
  let a = Asm.assemble ssa_items in
  Memory.priv_write_bytes mem layout.Layout.code_lo a.Asm.code;
  let itp =
    Interp.create ~ocall:(fun _ _ -> Interp.Halt (Interp.Ocall_denied 99)) mem
  in
  Interp.init_stack itp;
  Interp.set_rip itp layout.Layout.code_lo;
  (itp, mem, layout)

let reference_exit () =
  let itp, _, _ = setup_interp () in
  let rec go () = match Interp.step itp with None -> go () | Some r -> r in
  go ()

let test_ssa_roundtrip_every_boundary () =
  let expected = reference_exit () in
  (* force an AEX at boundary k, check the SSA image against the live
     state, run to completion, assert the result is undisturbed *)
  let boundaries = List.length ssa_items in
  for k = 0 to boundaries - 1 do
    let itp, mem, layout = setup_interp () in
    let ssa = layout.Layout.ssa_lo in
    for _ = 1 to k do
      ignore (Interp.step itp)
    done;
    let regs = Interp.register_file itp in
    let rip = Interp.rip itp in
    let flags = Interp.flags_word itp in
    Interp.force_aex itp;
    List.iteri
      (fun i (name, v) ->
        if i < 16 then
          Alcotest.(check int64)
            (Printf.sprintf "boundary %d: SSA[%s]" k name)
            v
            (Memory.priv_read_u64 mem (ssa + (8 * i))))
      regs;
    Alcotest.(check int64)
      (Printf.sprintf "boundary %d: SSA rip" k)
      (Int64.of_int rip)
      (Memory.priv_read_u64 mem (ssa + 128));
    Alcotest.(check int64)
      (Printf.sprintf "boundary %d: SSA flags" k)
      flags
      (Memory.priv_read_u64 mem (ssa + 136));
    (* the AEX must not disturb live register/flag state *)
    Alcotest.(check bool)
      (Printf.sprintf "boundary %d: live state preserved" k)
      true
      (Interp.register_file itp = regs
      && Interp.rip itp = rip
      && Interp.flags_word itp = flags);
    let rec go () = match Interp.step itp with None -> go () | Some r -> r in
    Alcotest.(check bool)
      (Printf.sprintf "boundary %d: run completes identically" k)
      true
      (go () = expected)
  done

(* ------------------------------------------------------------------ *)
(* Resilience: retry, backoff, budgets *)

let test_resilience_retry_then_done () =
  let r = Resilience.create ~seed:1L () in
  let result =
    Resilience.run r ~stage:"s" (fun ~attempt ->
        if attempt < 3 then Resilience.Transient "flaky" else Resilience.Done attempt)
  in
  Alcotest.(check bool) "succeeds on third attempt" true (result = Ok 3);
  match Resilience.stats r with
  | [ s ] ->
    Alcotest.(check int) "attempts" 3 s.Resilience.attempts;
    Alcotest.(check int) "retries" 2 s.Resilience.retries;
    Alcotest.(check bool) "backoff charged" true (s.Resilience.backoff_ms > 0);
    Alcotest.(check bool) "not timed out" false s.Resilience.timed_out
  | l -> Alcotest.failf "expected one stage record, got %d" (List.length l)

let test_resilience_fatal_immediate () =
  let r = Resilience.create ~seed:1L () in
  let calls = ref 0 in
  let result =
    Resilience.run r ~stage:"s" (fun ~attempt:_ ->
        incr calls;
        Resilience.Fatal "broken")
  in
  Alcotest.(check bool) "fatal propagates" true (result = Error (Resilience.Gave_up "broken"));
  Alcotest.(check int) "no retry of fatal errors" 1 !calls

let test_resilience_exhaustion () =
  let r = Resilience.create ~seed:1L () in
  let result =
    Resilience.run r ~stage:"s" (fun ~attempt:_ -> Resilience.Transient "down")
  in
  (match result with
  | Error (Resilience.Timed_out { attempts; last; _ }) ->
    Alcotest.(check int) "budget respected"
      Resilience.default_config.Resilience.max_attempts attempts;
    Alcotest.(check string) "last fault named" "down" last
  | _ -> Alcotest.fail "expected Timed_out");
  Alcotest.(check bool) "stats record the timeout" true
    (match Resilience.stats r with [ s ] -> s.Resilience.timed_out | _ -> false)

let test_resilience_deterministic () =
  let total seed =
    let r = Resilience.create ~seed () in
    ignore (Resilience.run r ~stage:"s" (fun ~attempt:_ -> Resilience.Transient "x"));
    Resilience.total_backoff_ms r
  in
  Alcotest.(check int) "same seed, same backoff" (total 5L) (total 5L);
  Alcotest.(check bool) "exponential growth bounded by cap" true
    (total 5L
    <= Resilience.default_config.Resilience.max_attempts
       * (Resilience.default_config.Resilience.max_backoff_ms
         + Resilience.default_config.Resilience.base_backoff_ms))

(* ------------------------------------------------------------------ *)
(* Session-level failure semantics: exit codes 10 and 11 *)

let tiny_src = "int main() { print_int(7); return 0; }"

let test_stage_timeout_exit_10 () =
  (* one attempt only, and that attempt's delivery is dropped: the stage
     never sees a structured answer -> Stage_timeout -> exit 10 *)
  let plan =
    {
      Chaos.seed = 13L;
      faults = [ Chaos.Channel_fault { site = Chaos.Deliver_binary; action = Chaos.Drop } ];
    }
  in
  let rc = { Resilience.default_config with Resilience.max_attempts = 1 } in
  match
    Session.admit ~chaos:(Chaos.of_plan plan)
      { Deflection.Bootstrap.default_config with resilience = rc }
      ~source:tiny_src ~inputs:[]
  with
  | Error (Session.Stage_timeout { stage; _ } as e) ->
    Alcotest.(check int) "exit code 10" 10 (Session.exit_code e);
    Alcotest.(check string) "the delivery stage" "deliver" stage
  | Error e -> Alcotest.failf "wrong error: %s" (Session.error_to_string e)
  | Ok _ -> Alcotest.fail "dropped delivery accepted"

let test_fuel_exhaustion_exit_11 () =
  let plan = { Chaos.seed = 14L; faults = [ Chaos.Fuel_limit { fuel = 50 } ] } in
  match
    Session.admit ~chaos:(Chaos.of_plan plan) Deflection.Bootstrap.default_config
      ~source:tiny_src ~inputs:[]
  with
  | Ok o ->
    Alcotest.(check bool) "watchdog fired" true (o.Session.exit = Interp.Fuel_exhausted);
    Alcotest.(check int) "exit code 11" 11 (Session.process_exit_code (Ok o))
  | Error e -> Alcotest.failf "unexpected error: %s" (Session.error_to_string e)

let test_transient_channel_fault_retried () =
  (* a single bit flip on delivery fails authentication once; the retry
     resends the identical sealed record and the session completes *)
  let plan =
    {
      Chaos.seed = 15L;
      faults =
        [ Chaos.Channel_fault { site = Chaos.Deliver_binary; action = Chaos.Bit_flip } ];
    }
  in
  match
    Session.admit ~chaos:(Chaos.of_plan plan) Deflection.Bootstrap.default_config
      ~source:tiny_src ~inputs:[]
  with
  | Ok o ->
    Alcotest.(check bool) "clean exit" true (o.Session.exit = Interp.Exited 0L);
    Alcotest.(check bool) "a retry happened" true
      (List.exists
         (fun (s : Resilience.stage_stats) ->
           s.Resilience.stage = "deliver" && s.Resilience.retries > 0)
         o.Session.retries)
  | Error e -> Alcotest.failf "flip not healed by retry: %s" (Session.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Graceful degradation: a failing telemetry sink never affects the verdict *)

let test_failing_sink_is_contained () =
  let tm =
    Telemetry.create ~sink:(Telemetry.Sink.custom (fun _ -> failwith "sink died")) ()
  in
  (match Session.run ~tm ~source:tiny_src ~inputs:[] () with
  | Ok o -> Alcotest.(check bool) "verdict unaffected" true (o.Session.exit = Interp.Exited 0L)
  | Error e -> Alcotest.failf "sink failure leaked into session: %s" (Session.error_to_string e));
  Alcotest.(check bool) "sink poisoned" true (Telemetry.sink_failed tm);
  (* a healthy custom sink still sees events *)
  let seen = ref 0 in
  let tm2 = Telemetry.create ~sink:(Telemetry.Sink.custom (fun _ -> incr seen)) () in
  Telemetry.event tm2 "ping";
  Alcotest.(check bool) "healthy sink delivers" true (!seen = 1);
  Alcotest.(check bool) "healthy sink not failed" false (Telemetry.sink_failed tm2)

(* ------------------------------------------------------------------ *)
(* Campaign: the fail-closed oracle and exact replay *)

let test_oracle_invariants () =
  let base =
    { Oracle.exit_code = 0; accepted = true; leaked_bytes = 0; outputs_digest = "d" }
  in
  Alcotest.(check bool) "identical runs pass" true
    (Oracle.ok (Oracle.check ~reference:base ~subject:base ~divergence_allowed:false));
  let undocumented = { base with Oracle.exit_code = 77 } in
  Alcotest.(check bool) "undocumented exit code flagged" false
    (Oracle.ok (Oracle.check ~reference:base ~subject:undocumented ~divergence_allowed:false));
  let leaky = { base with Oracle.leaked_bytes = 1 } in
  Alcotest.(check bool) "leak increase flagged" false
    (Oracle.ok (Oracle.check ~reference:base ~subject:leaky ~divergence_allowed:false));
  let rejected = { base with Oracle.exit_code = 2; accepted = false } in
  Alcotest.(check bool) "rejection -> acceptance flagged" false
    (Oracle.ok (Oracle.check ~reference:rejected ~subject:base ~divergence_allowed:false));
  let diverged = { base with Oracle.outputs_digest = "other" } in
  Alcotest.(check bool) "silent output divergence flagged" false
    (Oracle.ok (Oracle.check ~reference:base ~subject:diverged ~divergence_allowed:false));
  Alcotest.(check bool) "divergence allowed under memory flips" true
    (Oracle.ok (Oracle.check ~reference:base ~subject:diverged ~divergence_allowed:true))

let test_campaign_fail_closed () =
  let report = Campaign.run ~base_seed:300L ~seeds:12 () in
  Alcotest.(check int) "zero violations" 0 (Campaign.violations report);
  Alcotest.(check int) "all cases ran" 12 (List.length report.Campaign.cases);
  (* every subject exit code is documented *)
  List.iter
    (fun (c : Campaign.case) ->
      Alcotest.(check bool)
        (Printf.sprintf "case %Ld exit %d documented" c.Campaign.seed
           c.Campaign.subject.Oracle.exit_code)
        true
        (List.mem c.Campaign.subject.Oracle.exit_code Oracle.documented_exit_codes))
    report.Campaign.cases

let test_campaign_replay_identical () =
  let a = Campaign.run_case ~seed:7L in
  let b = Campaign.run_case ~seed:7L in
  Alcotest.(check string) "replay is byte-identical"
    (Json.to_string (Campaign.case_to_json a))
    (Json.to_string (Campaign.case_to_json b))

let suite =
  [
    Alcotest.test_case "plan: deterministic in seed" `Quick test_plan_determinism;
    Alcotest.test_case "plan: JSON round-trip" `Quick test_plan_json_roundtrip;
    Alcotest.test_case "engine: faults are one-shot" `Quick test_engine_one_shot;
    Alcotest.test_case "engine: disabled is inert" `Quick test_engine_disabled_inert;
    Alcotest.test_case "engine: ocall fault arming" `Quick test_engine_ocall_arming;
    Alcotest.test_case "fuzz: quote parser never raises (1k)" `Quick test_quote_fuzz;
    Alcotest.test_case "fuzz: objfile parser never raises (1k)" `Quick test_objfile_fuzz;
    Alcotest.test_case "fuzz: sealed records fail closed (1k)" `Quick
      test_sealed_record_fuzz;
    Alcotest.test_case "prng: derived streams independent" `Quick
      test_prng_stream_independence;
    Alcotest.test_case "prng: chaos leaves the AEX schedule untouched" `Quick
      test_chaos_does_not_perturb_aex_stream;
    Alcotest.test_case "ssa: save round-trips at every boundary" `Quick
      test_ssa_roundtrip_every_boundary;
    Alcotest.test_case "resilience: transient retried to success" `Quick
      test_resilience_retry_then_done;
    Alcotest.test_case "resilience: fatal aborts immediately" `Quick
      test_resilience_fatal_immediate;
    Alcotest.test_case "resilience: budget exhaustion" `Quick test_resilience_exhaustion;
    Alcotest.test_case "resilience: deterministic backoff" `Quick
      test_resilience_deterministic;
    Alcotest.test_case "session: dropped stage times out with 10" `Quick
      test_stage_timeout_exit_10;
    Alcotest.test_case "session: fuel watchdog exits 11" `Quick test_fuel_exhaustion_exit_11;
    Alcotest.test_case "session: bit flip healed by retry" `Quick
      test_transient_channel_fault_retried;
    Alcotest.test_case "telemetry: failing sink contained" `Quick
      test_failing_sink_is_contained;
    Alcotest.test_case "oracle: each invariant bites" `Quick test_oracle_invariants;
    Alcotest.test_case "campaign: fail-closed over 12 plans" `Quick test_campaign_fail_closed;
    Alcotest.test_case "campaign: replay byte-identical" `Quick
      test_campaign_replay_identical;
  ]
