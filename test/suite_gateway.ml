(* The verify-once/admit-many gateway: verdict-cache accounting, LRU
   bounds, fan-out determinism, mixed-batch exit codes, telemetry merge
   totals, the per-stage latency plane, and cross-domain trace
   propagation (every span of a K=4 batch reaches the root through
   parent links). *)

module Gateway = Deflection_gateway.Gateway
module Session = Deflection.Session
module Bootstrap = Deflection.Bootstrap
module Policy = Deflection_policy.Policy
module Verifier = Deflection_verifier.Verifier
module T = Deflection_telemetry.Telemetry
module Hdr = Deflection_telemetry.Hdr

let compliant_src = "int main() { print_int(42); return 0; }"

(* out-of-bounds store: delivered and admitted, then faults at runtime *)
let aborting_src = "int buf[4];\nint main() { buf[2000000] = 7; return 0; }"

(* compiled for P1 only, so a P1-P6 gateway rejects it at verification *)
let rejected_src = "int cell[8];\nint main() { cell[3] = 9; print_int(cell[3]); return 0; }"

let ok_job ~label ~seed = Gateway.job ~label ~seed compliant_src
let abort_job ~label ~seed = Gateway.job ~label ~seed aborting_src

let reject_job ~label ~seed =
  Gateway.job ~compile_policies:Policy.Set.p1 ~label ~seed rejected_src

(* the warm path: every session's enclave consults [cache] *)
let warm ?(verification = Verifier.Descent) cache =
  { Bootstrap.default_config with Bootstrap.verifier_cache = Some cache; verification }

let stats_exn batch =
  match batch.Gateway.cache_stats with
  | Some s -> s
  | None -> Alcotest.fail "expected cache stats on a warm batch"

let outputs_of r =
  match r.Gateway.outcome with
  | Ok o -> List.map Bytes.to_string o.Session.outputs
  | Error _ -> []

let test_cache_hit_miss_accounting () =
  (* six sessions of one binary: the verifier runs once, five admissions
     ride the cached verdict -- independent of each session's seed *)
  let jobs =
    List.init 6 (fun i ->
        ok_job ~label:(Printf.sprintf "ok-%d" i) ~seed:(Int64.of_int (100 + i)))
  in
  let cache = Verifier.Cache.create () in
  let batch = Gateway.run_batch ~config:(warm cache) jobs in
  let s = stats_exn batch in
  Alcotest.(check int) "misses" 1 s.Verifier.Cache.misses;
  Alcotest.(check int) "hits" 5 s.Verifier.Cache.hits;
  Alcotest.(check int) "entries" 1 s.Verifier.Cache.entries;
  Alcotest.(check int) "distinct binaries" 1 batch.Gateway.distinct_binaries;
  List.iter
    (fun r ->
      Alcotest.(check int) (r.Gateway.label ^ " exit") 0 r.Gateway.exit_code;
      Alcotest.(check (list string)) (r.Gateway.label ^ " output") [ "42" ] (outputs_of r))
    batch.Gateway.results

let test_cross_mode_cache_isolation () =
  (* the verdict-cache key binds the verification mode: the same binary
     admitted under Descent and then under Witnessed must go cold twice —
     a verdict rendered by one discipline is never served to another *)
  let jobs n =
    List.init n (fun i -> ok_job ~label:(Printf.sprintf "xm-%d" i) ~seed:(Int64.of_int i))
  in
  let cache = Verifier.Cache.create () in
  let b1 = Gateway.run_batch ~config:(warm ~verification:Verifier.Descent cache) (jobs 2) in
  let s1 = stats_exn b1 in
  Alcotest.(check int) "descent batch: one miss" 1 s1.Verifier.Cache.misses;
  Alcotest.(check int) "descent batch: one hit" 1 s1.Verifier.Cache.hits;
  let b2 = Gateway.run_batch ~config:(warm ~verification:Verifier.Witnessed cache) (jobs 2) in
  let s2 = stats_exn b2 in
  Alcotest.(check int) "witnessed batch went cold again" 2 s2.Verifier.Cache.misses;
  Alcotest.(check int) "two entries, one per mode" 2 s2.Verifier.Cache.entries;
  (* and a replay under the first mode is still warm *)
  let b3 = Gateway.run_batch ~config:(warm ~verification:Verifier.Descent cache) (jobs 2) in
  let s3 = stats_exn b3 in
  Alcotest.(check int) "no third miss" 2 s3.Verifier.Cache.misses;
  (* both tiers admit the compliant binary with identical behaviour *)
  List.iter
    (fun batch ->
      List.iter
        (fun r ->
          Alcotest.(check int) (r.Gateway.label ^ " exit") 0 r.Gateway.exit_code;
          Alcotest.(check (list string)) (r.Gateway.label ^ " output") [ "42" ] (outputs_of r))
        batch.Gateway.results)
    [ b1; b2; b3 ]

let test_rejections_are_cached () =
  (* a rejection is a verdict too: one verifier pass, then cached denials *)
  let jobs =
    List.init 4 (fun i -> reject_job ~label:(Printf.sprintf "rej-%d" i) ~seed:1L)
  in
  let cache = Verifier.Cache.create () in
  let batch = Gateway.run_batch ~config:(warm cache) jobs in
  let s = stats_exn batch in
  Alcotest.(check int) "misses" 1 s.Verifier.Cache.misses;
  Alcotest.(check int) "hits" 3 s.Verifier.Cache.hits;
  List.iter
    (fun r ->
      Alcotest.(check int) (r.Gateway.label ^ " exit") 2 r.Gateway.exit_code;
      match r.Gateway.outcome with
      | Error (Session.Verifier_rejection _) -> ()
      | _ -> Alcotest.failf "%s: expected a verifier rejection" r.Gateway.label)
    batch.Gateway.results

let test_lru_eviction_bound () =
  (* three distinct binaries through a two-entry cache: the LRU entry is
     evicted, and the live-entry count never exceeds the capacity *)
  let srcs =
    [
      compliant_src;
      "int main() { print_int(1); return 0; }";
      "int main() { print_int(2); return 0; }";
    ]
  in
  let jobs =
    List.concat
      (List.mapi
         (fun i src ->
           [
             Gateway.job ~label:(Printf.sprintf "a-%d" i) ~seed:1L src;
             Gateway.job ~label:(Printf.sprintf "b-%d" i) ~seed:2L src;
           ])
         srcs)
  in
  let cache = Verifier.Cache.create ~capacity:2 () in
  let batch = Gateway.run_batch ~config:(warm cache) jobs in
  let s = stats_exn batch in
  Alcotest.(check int) "misses" 3 s.Verifier.Cache.misses;
  Alcotest.(check int) "hits" 3 s.Verifier.Cache.hits;
  Alcotest.(check bool) "evicted" true (s.Verifier.Cache.evictions > 0);
  Alcotest.(check bool) "bounded" true
    (s.Verifier.Cache.entries <= s.Verifier.Cache.capacity);
  Alcotest.(check int) "distinct binaries" 3 batch.Gateway.distinct_binaries

let mixed_jobs n =
  List.init n (fun i ->
      let seed = Int64.of_int (1 + i) in
      match i mod 3 with
      | 0 -> ok_job ~label:(Printf.sprintf "ok-%d" i) ~seed
      | 1 -> abort_job ~label:(Printf.sprintf "abort-%d" i) ~seed
      | _ -> reject_job ~label:(Printf.sprintf "reject-%d" i) ~seed)

let test_mixed_batch_exit_codes () =
  let cache = Verifier.Cache.create () in
  let batch = Gateway.run_batch ~config:(warm cache) (mixed_jobs 6) in
  List.iter
    (fun r ->
      let expect =
        if String.length r.Gateway.label >= 2 && String.sub r.Gateway.label 0 2 = "ok" then 0
        else if String.sub r.Gateway.label 0 5 = "abort" then 9
        else 2
      in
      Alcotest.(check int) (r.Gateway.label ^ " exit code") expect r.Gateway.exit_code)
    batch.Gateway.results;
  (* 3 distinct binaries, each delivered twice: 3 misses + 3 hits *)
  let s = stats_exn batch in
  Alcotest.(check int) "misses" 3 s.Verifier.Cache.misses;
  Alcotest.(check int) "hits" 3 s.Verifier.Cache.hits

let digest batch =
  List.map
    (fun r -> (r.Gateway.label, r.Gateway.seed, r.Gateway.exit_code, outputs_of r))
    batch.Gateway.results

let test_fanout_equivalence () =
  (* the hard gateway property: K=4 produces the same batch as K=1 --
     same results in the same order, same merged telemetry totals, same
     cache accounting -- so parallelism is unobservable in the output *)
  let run k =
    let cache = Verifier.Cache.create () in
    Gateway.run_batch ~jobs:k ~config:(warm cache) (mixed_jobs 9)
  in
  let seq = run 1 and par = run 4 in
  Alcotest.(check int) "sequential workers" 1 seq.Gateway.workers;
  Alcotest.(check int) "parallel workers" 4 par.Gateway.workers;
  Alcotest.(check bool) "results identical" true (digest seq = digest par);
  Alcotest.(check bool) "counter totals identical" true
    (seq.Gateway.counters = par.Gateway.counters);
  let ss = stats_exn seq and sp = stats_exn par in
  Alcotest.(check int) "hits schedule-independent" ss.Verifier.Cache.hits
    sp.Verifier.Cache.hits;
  Alcotest.(check int) "misses schedule-independent" ss.Verifier.Cache.misses
    sp.Verifier.Cache.misses

let test_telemetry_merge_totals () =
  (* merged counters must be real sums: a fan-out batch of 2N identical
     sessions carries exactly twice the count of every counter of N *)
  let run n k =
    let cache = Verifier.Cache.create () in
    (Gateway.run_batch ~jobs:k ~config:(warm cache)
       (List.init n (fun i -> ok_job ~label:(Printf.sprintf "ok-%d" i) ~seed:7L)))
      .Gateway.counters
  in
  let three = run 3 1 and six = run 6 2 in
  Alcotest.(check bool) "nonempty" true (three <> []);
  Alcotest.(check (list string)) "same counter names" (List.map fst three)
    (List.map fst six);
  List.iter2
    (fun (name, a) (_, b) ->
      (* verifier work is cached after the first session, so its counters
         are per-verdict rather than per-session: only require doubling
         for the per-session counters *)
      if not (String.length name >= 14 && String.sub name 0 14 = "verifier.cache")
         && not (String.length name >= 9 && String.sub name 0 9 = "verifier.")
      then Alcotest.(check int) (name ^ " doubled") (2 * a) b)
    three six

let test_latency_families () =
  (* the per-stage latency plane: one "session" sample per session, the
     cache_hit/cache_miss split agreeing with the verdict cache, and a
     "verify" sample only where the verifier actually ran *)
  let n = 5 in
  let cache = Verifier.Cache.create () in
  let batch =
    Gateway.run_batch ~config:(warm cache)
      (List.init n (fun i -> ok_job ~label:(Printf.sprintf "ok-%d" i) ~seed:3L))
  in
  let s = stats_exn batch in
  let fam name =
    match List.assoc_opt name batch.Gateway.latencies with
    | Some h -> Hdr.count h
    | None ->
      Alcotest.failf "latency family %S missing (have: %s)" name
        (String.concat ", " (List.map fst batch.Gateway.latencies))
  in
  Alcotest.(check int) "session samples" n (fam "session");
  Alcotest.(check int) "hit samples" s.Verifier.Cache.hits (fam "session.cache_hit");
  Alcotest.(check int) "miss samples" s.Verifier.Cache.misses (fam "session.cache_miss");
  Alcotest.(check int) "verify runs = misses" s.Verifier.Cache.misses (fam "verify");
  Alcotest.(check bool) "execute recorded" true (fam "execute" > 0);
  List.iter
    (fun (name, h) ->
      let p50 = Hdr.quantile h 0.5 and p99 = Hdr.quantile h 0.99 in
      if not (Hdr.min_value h <= p50 && p50 <= p99 && p99 <= Hdr.max_value h) then
        Alcotest.failf "family %S: non-monotone quantiles" name)
    batch.Gateway.latencies

let test_latency_schedule_independence () =
  (* durations are wall-clock, but which spans exist is deterministic:
     K=1 and K=4 must collect the same families with the same counts *)
  let run k =
    let cache = Verifier.Cache.create () in
    Gateway.run_batch ~jobs:k ~config:(warm cache) (mixed_jobs 8)
  in
  let seq = run 1 and par = run 4 in
  Alcotest.(check (list string)) "same families"
    (List.map fst seq.Gateway.latencies)
    (List.map fst par.Gateway.latencies);
  List.iter2
    (fun (name, a) (_, b) ->
      Alcotest.(check int) (name ^ " count schedule-independent") (Hdr.count a) (Hdr.count b))
    seq.Gateway.latencies par.Gateway.latencies

let span_name (s : T.span_info) = s.T.sname

let trace_of_batch ~k n =
  let tm = T.create ~sink:(T.Sink.ring ~capacity:4096) () in
  let cache = Verifier.Cache.create () in
  let batch =
    Gateway.run_batch ~jobs:k ~config:(warm cache) ~tm
      (List.init n (fun i -> ok_job ~label:(Printf.sprintf "ok-%d" i) ~seed:5L))
  in
  match batch.Gateway.trace with
  | Some snap -> snap
  | None -> Alcotest.fail "tracing registry supplied but batch.trace is None"

let test_trace_propagation () =
  (* the grafted K=4 trace is one causal tree: unique span ids, every
     parent link resolving, and every chain terminating at the
     gateway.batch root *)
  let n = 6 in
  let snap = trace_of_batch ~k:4 n in
  let root =
    match List.find_opt (fun (s : T.span_info) -> s.T.depth = 0) snap.T.spans with
    | Some s -> s
    | None -> Alcotest.fail "no depth-0 root span in the grafted trace"
  in
  Alcotest.(check string) "root is the batch span" "gateway.batch" (span_name root);
  Alcotest.(check int) "root has no parent" 0 root.T.parent;
  let by_sid = Hashtbl.create 64 in
  List.iter
    (fun (s : T.span_info) ->
      if Hashtbl.mem by_sid s.T.sid then Alcotest.failf "duplicate sid %d" s.T.sid;
      Hashtbl.add by_sid s.T.sid s)
    snap.T.spans;
  let rec reaches_root hops (s : T.span_info) =
    if hops > List.length snap.T.spans then false
    else if s.T.sid = root.T.sid then true
    else
      match Hashtbl.find_opt by_sid s.T.parent with
      | Some p -> reaches_root (hops + 1) p
      | None -> false
    in
  List.iter
    (fun (s : T.span_info) ->
      if not (reaches_root 0 s) then
        Alcotest.failf "span %S (sid %d) does not reach the root" (span_name s) s.T.sid)
    snap.T.spans;
  (* one lane wrapper per domain, every session span under some lane *)
  let lanes =
    List.filter
      (fun (s : T.span_info) ->
        String.length (span_name s) > 7 && String.sub (span_name s) 0 7 = "worker.")
      snap.T.spans
  in
  Alcotest.(check int) "one lane per domain" 4 (List.length lanes);
  let sessions =
    List.filter (fun (s : T.span_info) -> span_name s = "session") snap.T.spans
  in
  Alcotest.(check int) "one session span per session" n (List.length sessions);
  List.iter
    (fun (s : T.span_info) ->
      Alcotest.(check bool) "session span carries a worker lane" true
        (s.T.lane >= 1 && s.T.lane <= 4))
    sessions

let test_trace_counters_match_k1 () =
  (* the grafted trace's merged counters are schedule-independent: K=4
     totals equal K=1 totals, and both carry every session's work *)
  let n = 6 in
  let s1 = trace_of_batch ~k:1 n and s4 = trace_of_batch ~k:4 n in
  Alcotest.(check bool) "counters nonempty" true (s1.T.counters <> []);
  Alcotest.(check (list (pair string int))) "merged counters equal" s1.T.counters s4.T.counters;
  (* span population differs only by the per-domain lane wrappers *)
  let names snap =
    List.filter
      (fun n -> not (String.length n > 7 && String.sub n 0 7 = "worker."))
      (List.map span_name snap.T.spans)
    |> List.sort compare
  in
  Alcotest.(check (list string)) "same session span population" (names s1) (names s4)

let suite =
  [
    Alcotest.test_case "cache hit/miss accounting" `Quick test_cache_hit_miss_accounting;
    Alcotest.test_case "rejections are cached" `Quick test_rejections_are_cached;
    Alcotest.test_case "cross-mode cache isolation" `Quick test_cross_mode_cache_isolation;
    Alcotest.test_case "lru eviction bound" `Quick test_lru_eviction_bound;
    Alcotest.test_case "mixed batch exit codes" `Quick test_mixed_batch_exit_codes;
    Alcotest.test_case "k=1 vs k=4 equivalence" `Quick test_fanout_equivalence;
    Alcotest.test_case "telemetry merge totals" `Quick test_telemetry_merge_totals;
    Alcotest.test_case "per-stage latency families" `Quick test_latency_families;
    Alcotest.test_case "latency counts schedule-independent" `Quick
      test_latency_schedule_independence;
    Alcotest.test_case "k=4 trace reaches root" `Quick test_trace_propagation;
    Alcotest.test_case "trace counters match k=1" `Quick test_trace_counters_match_k1;
  ]
