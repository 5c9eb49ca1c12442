(* Session-level benchmark: whole admitted CCaaS sessions through the
   public entry points, checked against independent references.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --self-test

   With --trace 0 the last stdout line carries the end-to-end metrics;
   with --trace 1 it carries the per-layer metrics of a traced run. See
   README.md for every metric. *)

let workloads = [ "tenant-serve"; "cold-admit"; "exec-heavy" ]
(* Set-up time is the median of this many set-ups: the first of a
   process runs cold, and one slow host stretch should not decide it. *)
let setups = 7
let out_dir = Filename.concat "sessbench" "_out"
let state_root = Filename.concat "sessbench" "_state"

type measured = {
  correct : int;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  detail : (string * Bu.json) list;
}

let heap_top_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Set up [setups] times and keep the last; set-up time is their median. *)
let timed_setups f =
  let rec go k acc =
    let st, dt = Bu.time (fun () -> f k) in
    if k + 1 = setups then (st, List.rev (dt :: acc)) else go (k + 1) (dt :: acc)
  in
  go 0 []

let end_to_end ~latencies ~window ~(oracle : Oracle.t) ~setup =
  let n = List.length latencies in
  let good = List.length (List.filter (fun l -> l <= Serve.limit_s) latencies) in
  let per_s k = float_of_int k /. window in
  {
    correct = oracle.Oracle.correct;
    attempted = oracle.Oracle.attempted;
    failed = oracle.Oracle.failed;
    metrics =
      [
        ("sessions_per_s", per_s n, "1/s");
        ("goodput_per_s", per_s good, "1/s");
        ("session_p50_ms", Bu.ms (Bu.quantile latencies 0.5), "ms");
        ("session_p90_ms", Bu.ms (Bu.quantile latencies 0.9), "ms");
        ("setup_s", Bu.median setup, "s");
        ("heap_top_mb", heap_top_mb (), "MB");
      ];
    detail =
      [
        ("sessions", Bu.I n);
        ("beyond_p90", Bu.I (Bu.beyond n 0.9));
        ("window_s", Bu.F window);
        ("setup_samples_s", Bu.L (List.map (fun x -> Bu.F x) setup));
        ("latency_limit_ms", Bu.F (Bu.ms Serve.limit_s));
      ];
  }

let cache_metrics cache =
  match cache with
  | None -> [ ("verifier.cache_hit_ratio", 0.0, "ratio"); ("verifier.cache_entries", 0.0, "count") ]
  | Some c ->
    let s = Deflection_verifier.Verifier.Cache.stats c in
    let h = s.Deflection_verifier.Verifier.Cache.hits
    and m = s.Deflection_verifier.Verifier.Cache.misses in
    [
      ( "verifier.cache_hit_ratio",
        (if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)),
        "ratio" );
      ("verifier.cache_entries", float_of_int s.Deflection_verifier.Verifier.Cache.entries, "count");
    ]

let gc_metrics ~minor ~major ~sessions =
  let per x = if sessions = 0 then 0.0 else x /. float_of_int sessions in
  [
    ("gc.minor_words_per_session", per minor, "words");
    ("gc.major_per_session", per (float_of_int major), "count");
  ]

(* Layers a workload does not exercise read 0. *)
let server_absent =
  [
    ("server.round_ms", 0.0, "ms");
    ("server.queue_wait_p50_ms", 0.0, "ms");
    ("server.queue_wait_p90_ms", 0.0, "ms");
    ("server.batch_fill", 0.0, "ratio");
    ("server.shed_frac", 0.0, "ratio");
    ("server.offer_us", 0.0, "us");
    ("gen_late_ms", 0.0, "ms");
    ("audit.records", 0.0, "count");
    ("audit.seal_ms", 0.0, "ms");
    ("persist.state_bytes", 0.0, "bytes");
  ]

let overhead ~traced ~untraced =
  let t = Bu.median traced and u = Bu.median untraced in
  100.0 *. (t -. u) /. u

let fail_frac (o : Oracle.t) =
  ("fail_frac", float_of_int o.Oracle.failed /. float_of_int (max 1 o.Oracle.attempted), "ratio")

let write_spans ~workload ~seed tr =
  Bu.write_file
    (Filename.concat out_dir (Printf.sprintf "spans-%s-%Ld.json" workload seed))
    (Bu.json_to_string (Spans.to_json tr))

(* ------------------------------------------------------------------ *)

(* Keep the first binding of each metric name. *)
let dedup l =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun (n, _, _) ->
      if Hashtbl.mem seen n then false
      else (
        Hashtbl.add seen n ();
        true))
    l

let closed ~workload ~seed ~seconds ~trace ~setup ~make ~fresh_config ~cfg_of ~extra =
  let st, setup_s = timed_setups (fun _ -> setup ~seed) in
  let cfg = cfg_of st in
  if not trace then begin
    let r = Closed.untraced cfg ~seconds ~make:(make st) in
    end_to_end ~latencies:r.Closed.latencies ~window:r.Closed.window ~oracle:r.Closed.oracle
      ~setup:setup_s
  end
  else begin
    let acc, o, walls, plain, minor, major =
      Closed.traced ~untraced_cfg:cfg ~traced_cfg:(fresh_config st) ~seconds ~make:(make st)
    in
    write_spans ~workload ~seed acc.Layers.tr;
    {
      correct = o.Oracle.correct;
      attempted = o.Oracle.attempted;
      failed = o.Oracle.failed;
      metrics =
        dedup
          (extra st @ Layers.metrics acc
          @ cache_metrics cfg.Stages.cache
          @ server_absent
          @ gc_metrics ~minor ~major ~sessions:(List.length plain)
          @ [ ("trace.overhead_pct", overhead ~traced:walls ~untraced:plain, "%"); fail_frac o ]);
      detail = [ ("sessions", Bu.I (List.length plain)) ];
    }
  end

let cold ~seed ~seconds ~trace =
  closed ~workload:"cold-admit" ~seed ~seconds ~trace ~setup:(fun ~seed -> Cold.setup ~seed)
    ~make:Cold.make ~fresh_config:Cold.fresh_config
    ~cfg_of:(fun st -> st.Cold.cfg)
    ~extra:(fun _ -> [])

let exec ~seed ~seconds ~trace =
  closed ~workload:"exec-heavy" ~seed ~seconds ~trace ~setup:(fun ~seed -> Exec.setup ~seed)
    ~make:Exec.make
    ~fresh_config:(fun st -> st.Exec.cfg)
    ~cfg_of:(fun st -> st.Exec.cfg)
    ~extra:(fun st ->
      (* delivered precompiled: the build cost is paid once, in set-up *)
      [ ("compiler.build_ms", Bu.ms (Bu.median st.Exec.compile_s), "ms") ])

let serve ~seed ~seconds ~trace =
  let dir k = Filename.concat state_root (Printf.sprintf "tenant-serve-%Ld-%d" seed k) in
  let st, setup_s =
    timed_setups (fun k ->
        if k > 0 then Bu.rm_rf (dir (k - 1));
        Serve.setup ~seed ~dir:(dir k))
  in
  let check_late (r : Serve.run) =
    let p90 = Bu.quantile r.Serve.late 0.9 in
    if p90 > Serve.late_share *. Serve.limit_s then
      failwith
        (Printf.sprintf "generator ran late: p90 %.1f ms exceeds %.0f%% of the %.0f ms limit"
           (Bu.ms p90) (100.0 *. Serve.late_share) (Bu.ms Serve.limit_s));
    p90
  in
  let arrival_seed phase = Bu.S (Int64.to_string (Deflection_util.Prng.derive seed ~label:("arrivals-" ^ phase))) in
  let result =
    if not trace then begin
      let r = Serve.open_loop st ~phase:"a" ~seconds in
      let late = check_late r in
      ignore (Serve.audit st);
      let m =
        end_to_end ~latencies:r.Serve.latencies ~window:r.Serve.window ~oracle:r.Serve.oracle
          ~setup:setup_s
      in
      {
        m with
        detail =
          m.detail
          @ [
              ("arrival_seed", arrival_seed "a");
              ("rate_per_s", Bu.F Serve.rate);
              ("arrival_gap_shape", Bu.I Serve.shape);
              ("gen_late_p90_ms", Bu.F (Bu.ms late));
              ("shed", Bu.I r.Serve.shed);
            ];
      }
    end
    else begin
      let half = seconds /. 2.0 in
      let u = Serve.open_loop st ~phase:"a" ~seconds:half in
      ignore (check_late u);
      let tr = Spans.create () in
      let r = Serve.open_loop ~tr st ~phase:"b" ~seconds:half in
      let late = check_late r in
      let records, seal = Serve.audit ~tr st in
      write_spans ~workload:"tenant-serve" ~seed tr;
      let acc = Serve.split ~seed ~reps:3 in
      let doc = Deflection_server.Server.doc st.Serve.server in
      let int_member k =
        match Deflection_telemetry.Json.member k doc with
        | Some (Deflection_telemetry.Json.Int i) -> i
        | _ -> 0
      in
      let hits = int_member "warm_hits" and misses = int_member "cold_misses" in
      let entries =
        match Deflection_telemetry.Json.member "tenants" doc with
        | Some (Deflection_telemetry.Json.List ts) ->
          List.fold_left
            (fun a t ->
              match
                Option.bind (Deflection_telemetry.Json.member "cache" t)
                  (Deflection_telemetry.Json.member "entries")
              with
              | Some (Deflection_telemetry.Json.Int e) -> a + e
              | _ -> a)
            0 ts
        | _ -> 0
      in
      let o = r.Serve.oracle in
      let attempted = max 1 o.Oracle.attempted in
      {
        correct = o.Oracle.correct;
        attempted = o.Oracle.attempted;
        failed = o.Oracle.failed;
        metrics =
          dedup
            ([
               ("verifier.cache_hit_ratio", float_of_int hits /. float_of_int (max 1 (hits + misses)), "ratio");
               ("verifier.cache_entries", float_of_int entries, "count");
               ("server.round_ms", Bu.ms (Bu.median r.Serve.rounds), "ms");
               ("server.queue_wait_p50_ms", Bu.ms (Bu.quantile r.Serve.waits 0.5), "ms");
               ("server.queue_wait_p90_ms", Bu.ms (Bu.quantile r.Serve.waits 0.9), "ms");
               ( "server.batch_fill",
                 Bu.mean r.Serve.fill
                 /. float_of_int (Deflection_server.Server.config st.Serve.server).Deflection_server.Server.batch_size,
                 "ratio" );
               ("server.shed_frac", float_of_int r.Serve.shed /. float_of_int attempted, "ratio");
               ("server.offer_us", 1e6 *. Bu.median r.Serve.offers, "us");
               ("gen_late_ms", Bu.ms late, "ms");
               ("audit.records", float_of_int records, "count");
               ("audit.seal_ms", Bu.ms seal, "ms");
               ("persist.state_bytes", float_of_int (Bu.du st.Serve.dir), "bytes");
             ]
            @ Layers.metrics acc
            @ gc_metrics ~minor:u.Serve.gc_minor ~major:u.Serve.gc_major
                ~sessions:(List.length u.Serve.latencies)
            @ [
                ("trace.overhead_pct", overhead ~traced:r.Serve.latencies ~untraced:u.Serve.latencies, "%");
                fail_frac o;
              ]);
        detail =
          [
            ("arrival_seed", arrival_seed "b");
            ("rate_per_s", Bu.F Serve.rate);
            ("arrival_gap_shape", Bu.I Serve.shape);
          ];
      }
    end
  in
  Bu.rm_rf (dir (setups - 1));
  result

(* ------------------------------------------------------------------ *)

let print_result ~workload ~seed ~trace m =
  Printf.printf "%-28s %16s  %s\n" "metric" "value" "unit";
  List.iter (fun (n, v, u) -> Printf.printf "%-28s %16.4f  %s\n" n v u) m.metrics;
  print_endline
    (Bu.json_to_string
       (Bu.O
          ([
             ("workload", Bu.S workload);
             ("seed", Bu.S (Int64.to_string seed));
             ("trace", Bu.B trace);
           ]
          @ m.detail)));
  print_endline
    (Bu.json_to_string
       (Bu.O
          [
            ("correct", Bu.B true);
            ("attempted", Bu.I m.attempted);
            ("failed", Bu.I m.failed);
            ( "metrics",
              Bu.O (List.map (fun (n, v, u) -> (n, Bu.O [ ("value", Bu.F v); ("unit", Bu.S u) ])) m.metrics) );
          ]))

let run_workload ~workload ~seed ~seconds ~trace =
  match workload with
  | "tenant-serve" -> serve ~seed ~seconds ~trace
  | "cold-admit" -> cold ~seed ~seconds ~trace
  | "exec-heavy" -> exec ~seed ~seconds ~trace
  | w -> failwith ("unknown workload " ^ w)

(* ------------------------------------------------------------------ *)
(* Self-test: the oracle catches a wrong reference and a dropped session
   on every workload, and an injected delay lands in the layer it was
   injected into and nowhere else. *)

let expect_mismatch ~what f =
  match f () with
  | _ ->
    Printf.printf "FAIL %s: not caught\n%!" what;
    false
  | exception Oracle.Mismatch msg ->
    Printf.printf "ok   %s: caught (%s)\n%!" what msg;
    true

let oracle_self_test () =
  List.for_all
    (fun workload ->
      let run () = run_workload ~workload ~seed:11L ~seconds:1.5 ~trace:false in
      let clean =
        Oracle.fault := Oracle.No_fault;
        match run () with
        | _ ->
          Printf.printf "ok   %s: clean run passes\n%!" workload;
          true
        | exception Oracle.Mismatch msg ->
          Printf.printf "FAIL %s: clean run refused (%s)\n%!" workload msg;
          false
      in
      let faults =
        List.for_all
          (fun (label, f) ->
            Oracle.fault := f;
            let r = expect_mismatch ~what:(workload ^ " " ^ label) run in
            Oracle.fault := Oracle.No_fault;
            r)
          [ ("wrong reference", Oracle.Wrong_reference 2); ("dropped session", Oracle.Drop_session 2) ]
      in
      clean && faults)
    workloads

let attribution_self_test () =
  let delay = 0.020 and stage = "runtime.execute" and sessions = 20 in
  let st = Cold.setup ~seed:5L in
  let base = Spans.create () and slow = Spans.create () in
  slow.Spans.delay <- Some (stage, delay);
  let cfg_a = Cold.fresh_config st and cfg_b = Cold.fresh_config st in
  for i = 0 to sessions - 1 do
    let s = Cold.make st i in
    List.iter
      (fun (tr, cfg) ->
        Spans.set_session tr i;
        let r = Stages.run tr cfg ~seed:s.Closed.seed ~source:s.Closed.source ~inputs:s.Closed.inputs () in
        if r.Stages.exit_code <> 0 then failwith "attribution self-test: session failed")
      [ (base, cfg_a); (slow, cfg_b) ]
  done;
  let a = Spans.by_session base and b = Spans.by_session slow in
  let names = Hashtbl.fold (fun n _ acc -> n :: acc) (Hashtbl.find a 0) [] |> List.sort compare in
  List.for_all
    (fun name ->
      let deltas =
        List.init sessions (fun i ->
            let get t = Option.value ~default:0.0 (Hashtbl.find_opt (Hashtbl.find t i) name) in
            get b -. get a)
      in
      let moved = Bu.median deltas in
      let spread = Bu.quantile deltas 0.75 -. Bu.quantile deltas 0.25 in
      let tol = Float.max 0.0005 spread in
      let expected = if name = stage then delay else 0.0 in
      let ok = Float.abs (moved -. expected) <= tol in
      Printf.printf "%s %-22s moved %+8.3f ms (expected %+.3f, tolerance %.3f ms)\n%!"
        (if ok then "ok  " else "FAIL") name (Bu.ms moved) (Bu.ms expected) (Bu.ms tol);
      ok)
    names

let self_test () =
  let o = oracle_self_test () in
  let a = attribution_self_test () in
  Bu.rm_rf state_root;
  if o && a then (print_endline "self-test passed"; 0) else (print_endline "self-test FAILED"; 1)

let usage () =
  prerr_endline
    "usage: main.exe --workload (tenant-serve|cold-admit|exec-heavy) --seed N --seconds S \
     --trace 0|1\n       main.exe --self-test\n       main.exe --capacity SECONDS";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" && k <> "--self-test" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [ "--self-test" ] -> ("self-test", "1") :: acc
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = List.assoc_opt k opts in
  if get "self-test" <> None then exit (self_test ())
  else
    match get "capacity" with
    | Some s ->
      let st = Serve.setup ~seed:1L ~dir:(Filename.concat state_root "capacity") in
      Printf.printf "saturated tenant-serve capacity: %.2f sessions/s\n"
        (Serve.capacity st ~seconds:(float_of_string s));
      Bu.rm_rf (Filename.concat state_root "capacity")
    | None -> (
      match (get "workload", get "seed", get "seconds", get "trace") with
      | Some workload, Some seed, Some seconds, Some trace when List.mem workload workloads -> (
        let seed = Int64.of_string seed and seconds = float_of_string seconds in
        let trace = trace = "1" in
        match run_workload ~workload ~seed ~seconds ~trace with
        | m -> print_result ~workload ~seed ~trace m
        | exception Oracle.Mismatch msg ->
          Printf.eprintf "oracle mismatch: %s\n" msg;
          exit 3
        | exception Failure msg ->
          Printf.eprintf "benchmark failed: %s\n" msg;
          exit 4)
      | _ -> usage ())
