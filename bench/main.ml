(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (Section VI-B) on the simulated platform.

     dune exec bench/main.exe                 -- all experiments
     dune exec bench/main.exe -- table2 fig7  -- a subset
     dune exec bench/main.exe -- --quick      -- reduced sweeps
     dune exec bench/main.exe -- micro        -- Bechamel wall-clock micro
                                                 benches of the consumer
     dune exec bench/main.exe -- crypto       -- M521 mod_pow / DH op timings

   Overheads are deterministic virtual-cycle ratios (see DESIGN.md);
   absolute magnitudes need not match the paper's SGX testbed, the shapes
   must. Paper reference values are printed side by side.

   Besides the console tables, every run writes its results as JSON to
   bench/results/latest.json under the deflection-bench/1 schema
   (`json_check --bench` gates on it), plus a history entry
   bench/results/history/<unix-stamp>-<git-rev>.json so `deflectionc
   benchdiff` can compare the current run against the median of recent
   runs. History retention is bounded (see [history_keep]). *)

module W = Deflection_workloads
module Profiler = Deflection_forensics.Profiler
module Policy = Deflection_policy.Policy
module Manifest = Deflection_policy.Manifest
module Tcb = Deflection_runtimes.Tcb
module Shield = Deflection_runtimes.Shield
module Telemetry = Deflection_telemetry.Telemetry
module Json = Deflection_telemetry.Json
module Fs = Deflection_util.Fs

let quick = ref false
let printf = Printf.printf

let hr title = printf "\n%s\n%s\n" title (String.make (min 78 (String.length title)) '=')

(* ------------------------------------------------------------------ *)
(* Machine-readable results + bench-wide telemetry *)

(* one registry across the whole run: counters aggregate over every
   session the harness executes *)
let tm = Telemetry.create ()

let results : (string * Json.t) list ref = ref []
let record section json = results := (section, json) :: !results

let results_dir = Filename.concat "bench" "results"

let write_json path doc = Fs.write_atomic path (Json.to_string ~pretty:true doc ^ "\n")

let history_dir = Filename.concat results_dir "history"

(* Retention knob: every run stamps a history entry; keep only the
   newest DEFLECTION_BENCH_HISTORY_KEEP (default 5, minimum 1) so local
   checkouts don't accumulate results forever. Raise it on machines that
   serve as long-term baselines, e.g.

     DEFLECTION_BENCH_HISTORY_KEEP=50 dune exec bench/main.exe

   `deflectionc benchdiff --history-depth N` reads at most the N newest
   entries, so the comparator never needs more history than this keeps. *)
let history_keep =
  match Option.bind (Sys.getenv_opt "DEFLECTION_BENCH_HISTORY_KEEP") int_of_string_opt with
  | Some n when n >= 1 -> n
  | Some _ | None -> 5

(* History entries are keyed by the git revision that produced them, so a
   regression surfaced by benchdiff names the offending commit. Falls back
   to "unknown" outside a git checkout (e.g. a release tarball). *)
let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short=12 HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with _ -> "unknown"

let prune_history () =
  let entries =
    Sys.readdir history_dir |> Array.to_list
    |> List.filter (fun n -> Filename.check_suffix n ".json")
    |> List.sort (fun a b -> compare b a)
  in
  List.iteri
    (fun i name -> if i >= history_keep then Sys.remove (Filename.concat history_dir name))
    entries

let write_results () =
  Fs.mkdir_p history_dir;
  let now = Unix.time () in
  let rev = git_rev () in
  let snap = Telemetry.snapshot tm in
  let doc =
    Json.Obj
      [
        ("schema", Json.Str "deflection-bench/1");
        ("generated_unix", Json.Int (int_of_float now));
        ("git_rev", Json.Str rev);
        ("quick", Json.Bool !quick);
        ("sections", Json.Obj (List.rev !results));
        ( "telemetry",
          Json.Obj
            [
              ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) snap.Telemetry.counters));
            ] );
      ]
  in
  let latest = Filename.concat results_dir "latest.json" in
  (* zero-padded unix stamp so lexicographically-greatest names are the
     newest entries; benchdiff relies on this when picking its window *)
  let stamped = Filename.concat history_dir (Printf.sprintf "%010.0f-%s.json" now rev) in
  write_json latest doc;
  write_json stamped doc;
  prune_history ();
  printf "\nresults written to %s (history: %s, keeping %d)\n" latest stamped history_keep

(* ------------------------------------------------------------------ *)
(* Shared measurement helpers *)

let run_workload ~policies ?(inputs = []) src =
  match W.Runner.run ~policies ~inputs ~tm src with
  | Ok m -> m
  | Error e -> failwith ("bench workload failed: " ^ e)

let overhead_pct ~base m =
  100.0
  *. (float_of_int m.W.Runner.cycles -. float_of_int base.W.Runner.cycles)
  /. float_of_int base.W.Runner.cycles

(* The one measured policy sweep every overhead experiment is built on:
   run the baseline and each instrumented setting through the full
   session, check the instrumented outputs never diverge, and return the
   overhead per setting. *)
let policy_sweep ?(inputs = []) ~what src =
  let base = run_workload ~policies:Policy.Set.none ~inputs src in
  let rows =
    List.map
      (fun (label, pset) ->
        let m = run_workload ~policies:pset ~inputs src in
        if m.W.Runner.outputs <> base.W.Runner.outputs then
          failwith (what ^ ": output diverged under " ^ label);
        (label, m, overhead_pct ~base m))
      (List.tl W.Runner.settings)
  in
  (base, rows)

let sweep_json ~base rows extra =
  Json.Obj
    (extra
    @ [ ("base_cycles", Json.Int base.W.Runner.cycles) ]
    @ List.map (fun (label, _, o) -> ("overhead_" ^ label, Json.Float o)) rows)

(* ------------------------------------------------------------------ *)
(* Table I: TCB comparison *)

let table1 () =
  hr "Table I: TCB comparison with other shielding runtimes (paper data)";
  printf "%-14s %-28s %10s %10s\n" "Runtime" "Component" "kLoC" "Size(MB)";
  List.iter
    (fun (r : Tcb.runtime) ->
      List.iteri
        (fun i (c : Tcb.component) ->
          printf "%-14s %-28s %10s %10s\n"
            (if i = 0 then r.Tcb.rname else "")
            c.Tcb.cname
            (if Float.is_nan c.Tcb.kloc then "N/A" else Printf.sprintf "%.1f" c.Tcb.kloc)
            (if i = 0 then
               match r.Tcb.binary_mb with Some m -> Printf.sprintf "> %.1f" m | None -> ""
             else ""))
        r.Tcb.components;
      printf "%-14s %-28s %10.1f\n" "" "(total)" (Tcb.total_kloc r))
    Tcb.paper_table;
  printf "\nThis reproduction's trusted consumer (measured from the OCaml sources):\n";
  let repro = Tcb.reproduction_components () in
  List.iter (fun (c : Tcb.component) -> printf "  %-58s %6.2f kLoC\n" c.Tcb.cname c.Tcb.kloc) repro;
  let repro_total = List.fold_left (fun a (c : Tcb.component) -> a +. c.Tcb.kloc) 0.0 repro in
  printf "  %-58s %6.2f kLoC\n" "(total; paper's loader/verifier/RA is 1.5 kLoC)" repro_total;
  record "table1"
    (Json.Obj
       (List.map
          (fun (r : Tcb.runtime) -> (r.Tcb.rname, Json.Float (Tcb.total_kloc r)))
          Tcb.paper_table
       @ [ ("reproduction_consumer", Json.Float repro_total) ]))

(* ------------------------------------------------------------------ *)
(* Table II: nBench under P1 / P1+P2 / P1-P5 / P1-P6 *)

let geo_mean xs =
  let n = List.length xs in
  if n = 0 then 0.0
  else begin
    let g = exp (List.fold_left (fun a x -> a +. log (1.0 +. (x /. 100.0))) 0.0 xs /. float_of_int n) in
    (g -. 1.0) *. 100.0
  end

let table2 () =
  hr "Table II: performance overhead on nBench (ours / paper, %)";
  printf "%-16s | %17s | %17s | %17s | %17s\n" "Program" "P1" "P1+P2" "P1-P5" "P1-P6";
  printf "%s\n" (String.make 95 '-');
  let benches =
    if !quick then [ List.nth W.Nbench.all 0; List.nth W.Nbench.all 5 ] else W.Nbench.all
  in
  let acc = ref [] in
  let rows = ref [] in
  let instrs = ref 0 in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (b : W.Nbench.benchmark) ->
      let base, sweep = policy_sweep ~what:b.W.Nbench.name b.W.Nbench.source in
      let ovh label = match List.find_opt (fun (l, _, _) -> l = label) sweep with
        | Some (_, _, o) -> o
        | None -> nan
      in
      instrs :=
        !instrs
        + List.fold_left
            (fun a (_, (m : W.Runner.measurement), _) -> a + m.W.Runner.instructions)
            base.W.Runner.instructions sweep;
      let o1 = ovh "P1" and o2 = ovh "P1+P2" and o5 = ovh "P1-P5" and o6 = ovh "P1-P6" in
      let p1, p2, p5, p6 = b.W.Nbench.paper_overheads in
      acc := (o1, o2, o5, o6) :: !acc;
      rows := (b.W.Nbench.name, sweep_json ~base sweep []) :: !rows;
      printf
        "%-16s | %+7.2f%%/%+6.2f%% | %+7.2f%%/%+6.2f%% | %+7.2f%%/%+6.2f%% | %+7.2f%%/%+6.2f%%\n"
        b.W.Nbench.name o1 p1 o2 p2 o5 p5 o6 p6)
    benches;
  let col f = List.map f !acc in
  printf "%s\n" (String.make 95 '-');
  let g1 = geo_mean (col (fun (a, _, _, _) -> a)) in
  let g2 = geo_mean (col (fun (_, a, _, _) -> a)) in
  let g5 = geo_mean (col (fun (_, _, a, _) -> a)) in
  let g6 = geo_mean (col (fun (_, _, _, a) -> a)) in
  printf "%-16s | %9.2f%%        | %9.2f%%        | %9.2f%%        | %9.2f%%\n" "geo-mean (ours)"
    g1 g2 g5 g6;
  printf "(paper: ~10%% geo-mean without side-channel mitigation, ~20%% with P1-P6)\n";
  (* wall-clock interpreter throughput across the whole sweep — one of the
     tracked benchdiff metrics (sections.table2.instr_per_sec) *)
  let dt = Unix.gettimeofday () -. t0 in
  let throughput = if dt > 0.0 then float_of_int !instrs /. dt else 0.0 in
  printf "interpreter throughput: %d instructions in %.3fs = %.0f instr/s\n" !instrs dt
    throughput;
  record "table2"
    (Json.Obj
       (List.rev !rows
       @ [
           ( "geo_mean",
             Json.Obj
               [
                 ("P1", Json.Float g1);
                 ("P1+P2", Json.Float g2);
                 ("P1-P5", Json.Float g5);
                 ("P1-P6", Json.Float g6);
               ] );
           ("instructions_executed", Json.Int !instrs);
           ("wall_seconds", Json.Float dt);
           ("instr_per_sec", Json.Float throughput);
         ]))

(* ------------------------------------------------------------------ *)
(* Execution tiers: the trace-compiled tier against the single-stepper.
   Every nBench workload runs under P1-P6 on both tiers; the outputs
   must hash to the committed golden SHA-256 digests
   (bench/golden/nbench.sha256) and every deterministic counter must
   agree across tiers — this is the bench-side half of the differential
   gate (test/suite_tier.ml is the other half). *)

module Sha256 = Deflection_crypto.Sha256

let golden_path = Filename.concat (Filename.concat "bench" "golden") "nbench.sha256"

let read_golden () =
  try
    let ic = open_in golden_path in
    let rec go acc =
      match input_line ic with
      | line -> (
        (* workload names contain spaces, so split on the LAST space *)
        let line = String.trim line in
        match String.rindex_opt line ' ' with
        | Some i ->
          let name = String.sub line 0 i
          and hex = String.sub line (i + 1) (String.length line - i - 1) in
          go ((name, hex) :: acc)
        | None -> go acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    Some (go [])
  with Sys_error _ -> None

let tier () =
  hr "Execution tiers: trace-compiled blocks vs single-step (nBench, P1-P6)";
  printf "%-16s | %9s | %9s | %8s | %s\n" "Program" "step (s)" "trace (s)" "speedup"
    "sha256(outputs)";
  printf "%s\n" (String.make 78 '-');
  let golden = read_golden () in
  let update = Sys.getenv_opt "DEFLECTION_UPDATE_GOLDEN" <> None in
  let rows = ref [] and digests = ref [] in
  let instrs = ref 0 and step_dt = ref 0.0 and trace_dt = ref 0.0 in
  List.iter
    (fun (b : W.Nbench.benchmark) ->
      (* time the enclave execution phase only (the session's "execute"
         telemetry span): attestation, compile, verification and upload
         are identical for both tiers and would dilute the tier ratio *)
      let timed_once tier =
        let tm_run = Telemetry.create () in
        match W.Runner.run ~tier ~tm:tm_run b.W.Nbench.source with
        | Ok m -> (
          match Telemetry.find_span m.W.Runner.telemetry "execute" with
          | Some s ->
            (m, float_of_int (s.Telemetry.stop_ns - s.Telemetry.start_ns) /. 1e9)
          | None -> failwith ("tier bench: no execute span for " ^ b.W.Nbench.name))
        | Error e -> failwith ("tier bench failed on " ^ b.W.Nbench.name ^ ": " ^ e)
      in
      (* execution is deterministic, so only the wall clock is noisy:
         best-of-3 filters scheduler jitter out of the speedup gate *)
      let timed tier =
        let m, dt1 = timed_once tier in
        let _, dt2 = timed_once tier in
        let _, dt3 = timed_once tier in
        (m, Float.min dt1 (Float.min dt2 dt3))
      in
      let ms, dts = timed W.Runner.Interp.Step in
      let mt, dtt = timed W.Runner.Interp.Trace in
      (* the differential gate: both tiers, byte-identical observables *)
      let same what x y =
        if String.compare x y <> 0 then
          failwith (Printf.sprintf "%s: %s diverged across tiers" b.W.Nbench.name what)
      in
      same "outputs" (String.concat "\n" ms.W.Runner.outputs)
        (String.concat "\n" mt.W.Runner.outputs);
      same "cycles" (string_of_int ms.W.Runner.cycles) (string_of_int mt.W.Runner.cycles);
      same "instructions"
        (string_of_int ms.W.Runner.instructions)
        (string_of_int mt.W.Runner.instructions);
      same "aexes" (string_of_int ms.W.Runner.aexes) (string_of_int mt.W.Runner.aexes);
      let digest = Sha256.hex_digest_string (String.concat "\n" mt.W.Runner.outputs) in
      (match golden with
      | Some g when not update -> (
        match List.assoc_opt b.W.Nbench.name g with
        | Some hex when String.equal hex digest -> ()
        | Some hex ->
          failwith
            (Printf.sprintf "%s: output digest %s does not match golden %s" b.W.Nbench.name
               digest hex)
        | None ->
          failwith
            (b.W.Nbench.name
            ^ ": no golden digest committed (run with DEFLECTION_UPDATE_GOLDEN=1 to \
               regenerate)"))
      | Some _ -> ()
      | None ->
        if not update then
          failwith
            ("golden digest file missing: " ^ golden_path
           ^ " (run with DEFLECTION_UPDATE_GOLDEN=1 to generate)"));
      digests := (b.W.Nbench.name, digest) :: !digests;
      instrs := !instrs + ms.W.Runner.instructions;
      step_dt := !step_dt +. dts;
      trace_dt := !trace_dt +. dtt;
      let sp = if dtt > 0.0 then dts /. dtt else 0.0 in
      printf "%-16s | %9.3f | %9.3f | %7.2fx | %s\n" b.W.Nbench.name dts dtt sp
        (String.sub digest 0 16);
      rows :=
        ( b.W.Nbench.name,
          Json.Obj
            [
              ("step_seconds", Json.Float dts);
              ("trace_seconds", Json.Float dtt);
              ("sha256", Json.Str digest);
            ] )
        :: !rows)
    W.Nbench.all;
  if update then begin
    Fs.mkdir_p (Filename.dirname golden_path);
    Fs.write_atomic golden_path
      (String.concat "" (List.rev_map (fun (n, h) -> Printf.sprintf "%s %s\n" n h) !digests));
    printf "golden digests written to %s\n" golden_path
  end;
  let step_ips = if !step_dt > 0.0 then float_of_int !instrs /. !step_dt else 0.0 in
  let trace_ips = if !trace_dt > 0.0 then float_of_int !instrs /. !trace_dt else 0.0 in
  let speedup = if step_ips > 0.0 then trace_ips /. step_ips else 0.0 in
  printf "%s\n" (String.make 78 '-');
  printf "single-step: %.0f instr/s | trace: %.0f instr/s | speedup %.2fx\n" step_ips trace_ips
    speedup;
  record "tier"
    (Json.Obj
       (List.rev !rows
       @ [
           ("instructions_per_tier", Json.Int !instrs);
           ("step_wall_seconds", Json.Float !step_dt);
           ("trace_wall_seconds", Json.Float !trace_dt);
           ("step_instr_per_sec", Json.Float step_ips);
           ("trace_instr_per_sec", Json.Float trace_ips);
           ("speedup_x", Json.Float speedup);
         ]))

(* ------------------------------------------------------------------ *)
(* Figures 7/8/9: overhead sweeps *)

let sweep_figure ~section ~title ~xlabel ~xs ~make =
  hr title;
  printf "%-10s | %12s | %9s %9s %9s %9s\n" xlabel "base cycles" "P1" "P1+P2" "P1-P5" "P1-P6";
  printf "%s\n" (String.make 70 '-');
  let rows =
    List.map
      (fun x ->
        let src, inputs = make x in
        let base, sweep = policy_sweep ~inputs ~what:title src in
        (match List.map (fun (_, _, o) -> o) sweep with
        | [ a; b; c; d ] ->
          printf "%-10d | %12d | %+8.1f%% %+8.1f%% %+8.1f%% %+8.1f%%\n" x base.W.Runner.cycles a
            b c d
        | _ -> assert false);
        sweep_json ~base sweep [ (xlabel, Json.Int x) ])
      xs
  in
  record section (Json.List rows)

let fig7 () =
  let xs = if !quick then [ 50; 200 ] else [ 50; 100; 200; 400; 700 ] in
  sweep_figure ~section:"fig7"
    ~title:
      "Figure 7: sequence alignment (Needleman-Wunsch), overhead vs input length\n\
       (paper: <= ~20% at small inputs; ~19.7% P1+P2 / ~22.2% P1-P5 at >= 500B)"
    ~xlabel:"length" ~xs
    ~make:(fun n ->
      let payload = W.Genome.fasta_input ~seed:42L ~n in
      let s1 = Bytes.sub payload 0 n and s2 = Bytes.sub payload n n in
      (W.Genome.alignment_source ~n, [ s1; s2 ]))

let fig8 () =
  let xs = if !quick then [ 1000; 20000 ] else [ 1000; 10000; 50000; 200000 ] in
  sweep_figure ~section:"fig8"
    ~title:
      "Figure 8: sequence generation, overhead vs output size (nucleotides)\n\
       (paper: P1 ~5-7%; <=20% at 200K; ~25% with side-channel mitigation)"
    ~xlabel:"length" ~xs
    ~make:(fun n -> (W.Genome.generation_source ~n, []))

let fig9 () =
  let xs = if !quick then [ 500; 5000 ] else [ 500; 2000; 10000; 40000 ] in
  sweep_figure ~section:"fig9"
    ~title:
      "Figure 9: credit scoring (BP network), overhead vs scored records\n\
       (paper: ~15% at 1K-10K records under P1-P5; <20% beyond 50K)"
    ~xlabel:"records" ~xs
    ~make:(fun n -> (W.Credit.source ~n, []))

(* ------------------------------------------------------------------ *)
(* Figure 10: HTTPS server response time / throughput vs concurrency *)

let https_service_cycles ~policies ~size =
  let requests = if !quick then 6 else 12 in
  let inputs = List.init requests (fun _ -> W.Https.request_payload ~size) in
  let m = run_workload ~policies ~inputs (W.Https.handler_source ~requests) in
  float_of_int m.W.Runner.cycles /. float_of_int requests

let fig10 () =
  hr
    "Figure 10: HTTPS server, response time and throughput vs concurrency\n\
     (paper: flat until ~100 connections, knee beyond; 14.1% mean response\n\
     overhead; <10% throughput overhead between 75 and 200 connections)";
  let size = 8192 in
  let s_base = https_service_cycles ~policies:Policy.Set.none ~size in
  let s_full = https_service_cycles ~policies:Policy.Set.p1_p6 ~size in
  printf "per-request service cycles (8 KiB file): baseline %.0f, P1-P6 %.0f (+%.1f%%)\n\n" s_base
    s_full
    (100.0 *. (s_full -. s_base) /. s_base);
  printf "%-6s | %14s %14s %8s | %14s %14s %8s\n" "conn" "resp base(ms)" "resp P1-P6(ms)" "ovh"
    "thru base(rps)" "thru P1-P6" "ovh";
  printf "%s\n" (String.make 95 '-');
  let concurrencies = [ 25; 50; 75; 100; 150; 200; 250 ] in
  let resp_ovhs = ref [] in
  let rows = ref [] in
  List.iter
    (fun c ->
      let b = W.Https.closed_loop ~service_cycles:s_base ~concurrency:c () in
      let f = W.Https.closed_loop ~service_cycles:s_full ~concurrency:c () in
      let ro =
        100.0 *. (f.W.Https.response_ms -. b.W.Https.response_ms) /. b.W.Https.response_ms
      in
      let to_ =
        100.0 *. (b.W.Https.throughput_rps -. f.W.Https.throughput_rps)
        /. b.W.Https.throughput_rps
      in
      resp_ovhs := ro :: !resp_ovhs;
      rows :=
        Json.Obj
          [
            ("concurrency", Json.Int c);
            ("response_overhead_pct", Json.Float ro);
            ("throughput_overhead_pct", Json.Float to_);
          ]
        :: !rows;
      printf "%-6d | %14.3f %14.3f %+7.1f%% | %14.0f %14.0f %+7.1f%%\n" c b.W.Https.response_ms
        f.W.Https.response_ms ro b.W.Https.throughput_rps f.W.Https.throughput_rps to_)
    concurrencies;
  let mean = List.fold_left ( +. ) 0.0 !resp_ovhs /. float_of_int (List.length !resp_ovhs) in
  printf "mean response-time overhead: %.1f%% (paper: 14.1%%)\n" mean;
  record "fig10"
    (Json.Obj
       [
         ("per_request_base_cycles", Json.Float s_base);
         ("per_request_p1p6_cycles", Json.Float s_full);
         ("mean_response_overhead_pct", Json.Float mean);
         ("points", Json.List (List.rev !rows));
       ])

(* ------------------------------------------------------------------ *)
(* Figure 11: HTTPS transfer rate vs file size across runtimes *)

let fig11 () =
  hr
    "Figure 11: HTTPS transfer rate vs file size across shielding runtimes\n\
     (paper: Graphene-SGX best at small files; DEFLECTION overtakes as size\n\
     grows, reaching ~77% of native)";
  (* The four runtime models encode each system's documented cost structure
     (lib/runtimes/shield.ml). We validate the DEFLECTION row against the
     simulated enclave: the model's per-byte ratio vs native (1.30) must be
     consistent with the measured instrumented/baseline handler ratio. *)
  let calibrate ~policies =
    let s1 = 2048 and s2 = 16384 in
    let c1 = https_service_cycles ~policies ~size:s1 in
    let c2 = https_service_cycles ~policies ~size:s2 in
    (c2 -. c1) /. float_of_int (s2 - s1)
  in
  let nb = calibrate ~policies:Policy.Set.none in
  let db = calibrate ~policies:Policy.Set.p1_p6 in
  printf
    "measured per-byte handler cycles: baseline %.1f, P1-P6 %.1f (ratio %.2f; the\n\
     Figure-11 model uses %.2f for DEFLECTION vs native, the difference being the\n\
     record-sealing work outside the handler)\n\n"
    nb db (db /. nb)
    (Shield.deflection.Shield.cycles_per_byte /. Shield.native.Shield.cycles_per_byte);
  let models = Shield.all in
  printf "%-10s |" "size";
  List.iter (fun (m : Shield.model) -> printf " %14s" m.Shield.sname) models;
  printf "   (MB/s)\n%s\n" (String.make 75 '-');
  let sizes = [ 1024; 10240; 102400; 512000; 1 lsl 20 ] in
  List.iter
    (fun size ->
      printf "%-10s |"
        (if size >= 1 lsl 20 then Printf.sprintf "%dM" (size lsr 20)
         else Printf.sprintf "%dK" (size lsr 10));
      List.iter (fun m -> printf " %14.1f" (Shield.transfer_rate_mbps m ~file_bytes:size)) models;
      printf "\n")
    sizes;
  let r m s = Shield.transfer_rate_mbps m ~file_bytes:s in
  printf "\nDEFLECTION/native at 1 MiB: %.0f%% (paper: ~77%%)\n"
    (100.0 *. r Shield.deflection (1 lsl 20) /. r Shield.native (1 lsl 20));
  printf "crossover DEFLECTION vs Graphene-SGX: %s\n"
    (let rec find s =
       if s > 1 lsl 22 then "none below 4 MiB"
       else if r Shield.deflection s > r Shield.graphene s then Printf.sprintf "~%d KiB" (s / 1024)
       else find (s * 2)
     in
     find 1024);
  record "fig11"
    (Json.Obj
       [
         ("measured_per_byte_ratio", Json.Float (db /. nb));
         ( "rates_mbps",
           Json.List
             (List.map
                (fun size ->
                  Json.Obj
                    (("file_bytes", Json.Int size)
                    :: List.map
                         (fun (m : Shield.model) ->
                           (m.Shield.sname, Json.Float (r m size)))
                         models))
                sizes) );
         ( "deflection_vs_native_1mib_pct",
           Json.Float (100.0 *. r Shield.deflection (1 lsl 20) /. r Shield.native (1 lsl 20)) );
       ])

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out *)

let ablation () =
  hr "Ablation A: P6 marker-inspection period q (NUMERIC SORT, P1-P6 vs baseline)";
  let src = (List.nth W.Nbench.all 0).W.Nbench.source in
  let base = run_workload ~policies:Policy.Set.none src in
  printf "%-6s | %10s | %s\n" "q" "overhead" "(denser inspection = tighter AEX detection, more cycles)";
  let q_rows =
    List.map
      (fun q ->
        match
          (* each row is measured and enforced at its own q *)
          Deflection.Session.run ~policies:Policy.Set.p1_p6
            ~manifest:{ Manifest.default with ssa_q = q } ~tm ~source:src
            ~inputs:[] ()
        with
        | Error e -> failwith (Deflection.Session.error_to_string e)
        | Ok o ->
          let ovh =
            100.0
            *. (float_of_int o.Deflection.Session.cycles -. float_of_int base.W.Runner.cycles)
            /. float_of_int base.W.Runner.cycles
          in
          printf "%-6d | %+9.1f%% |\n" q ovh;
          Json.Obj [ ("q", Json.Int q); ("overhead_pct", Json.Float ovh) ])
      [ 10; 20; 40; 80 ]
  in

  hr "Ablation B: CFI branch-table size (ASSIGNMENT, P1-P5)";
  printf "the linear-scan check costs O(table size) per indirect branch\n";
  let asrc extra =
    (* pad the branch table by taking the address of extra no-op functions *)
    let fns =
      String.concat "\n"
        (List.init extra (fun i -> Printf.sprintf "int pad%d(int x) { return x; }" i))
    in
    let takes =
      String.concat " "
        (List.init extra (fun i -> Printf.sprintf "sink[%d] = &pad%d;" (i mod 32) i))
    in
    let body = (List.nth W.Nbench.all 5).W.Nbench.source in
    let marker = "comparators[0] = &cmp_lt;" in
    let body =
      match String.index_opt body 'c' with
      | _ ->
        (* replace the first occurrence of [marker] *)
        let rec find i =
          if i + String.length marker > String.length body then None
          else if String.sub body i (String.length marker) = marker then Some i
          else find (i + 1)
        in
        (match find 0 with
        | Some i ->
          String.sub body 0 i ^ takes ^ " " ^ marker
          ^ String.sub body (i + String.length marker)
              (String.length body - i - String.length marker)
        | None -> failwith "ASSIGNMENT source changed")
    in
    Printf.sprintf "fnptr sink[32];\n%s\n%s" fns body
  in
  let base_a = run_workload ~policies:Policy.Set.none (List.nth W.Nbench.all 5).W.Nbench.source in
  let table_rows =
    List.map
      (fun extra ->
        let src = asrc extra in
        let m = run_workload ~policies:Policy.Set.p1_p5 src in
        let ovh = overhead_pct ~base:base_a m in
        printf "table size %-3d | P1-P5 overhead %+7.1f%%\n" (4 + extra) ovh;
        Json.Obj [ ("table_size", Json.Int (4 + extra)); ("overhead_pct", Json.Float ovh) ])
      [ 0; 8; 24 ]
  in

  hr "Ablation C: code-generator optimization (NUMERIC SORT, text bytes + cycles)";
  let opt_rows =
    List.map
      (fun optimize ->
        let obj =
          Deflection_compiler.Frontend.compile_exn ~policies:Policy.Set.p1_p6 ~optimize src
        in
        match
          Deflection.Session.run ~policies:Policy.Set.p1_p6 ~precompiled:obj ~tm ~source:src
            ~inputs:[] ()
        with
        | Error e -> failwith (Deflection.Session.error_to_string e)
        | Ok o ->
          printf "optimize=%-5b | text %6d bytes | %9d cycles\n" optimize
            (Bytes.length obj.Deflection_compiler.Frontend.Objfile.text)
            o.Deflection.Session.cycles;
          Json.Obj
            [
              ("optimize", Json.Bool optimize);
              ("text_bytes", Json.Int (Bytes.length obj.Deflection_compiler.Frontend.Objfile.text));
              ("cycles", Json.Int o.Deflection.Session.cycles);
            ])
      [ false; true ]
  in
  record "ablation"
    (Json.Obj
       [
         ("ssa_q", Json.List q_rows);
         ("cfi_table", Json.List table_rows);
         ("optimization", Json.List opt_rows);
       ])

(* ------------------------------------------------------------------ *)
(* Architectural comparison (paper Section VIII): verified native
   execution vs an interpreter inside the enclave (the Ryoan / in-enclave
   script-engine approach) *)

let related () =
  hr
    "Architectural comparison: DEFLECTION (verified native) vs in-enclave interpreter\n\
     (paper Section VIII: interpreter runtimes trade a large TCB and big slowdowns\n\
     for the same confinement)";
  printf "%-16s | %14s | %16s | %9s\n" "Program" "DEFLECTION cyc" "interpreter cyc" "slowdown";
  printf "%s\n" (String.make 66 '-');
  let rows =
    List.map
      (fun name ->
        let b = Option.get (W.Nbench.find name) in
        let native = run_workload ~policies:Policy.Set.p1_p6 b.W.Nbench.source in
        match Deflection_runtimes.Interp_baseline.run b.W.Nbench.source with
        | Error e -> failwith e
        | Ok (icycles, outputs) ->
          if outputs <> native.W.Runner.outputs then failwith (name ^ ": interpreter diverged");
          let slowdown = float_of_int icycles /. float_of_int native.W.Runner.cycles in
          printf "%-16s | %14d | %16d | %8.1fx\n" name native.W.Runner.cycles icycles slowdown;
          Json.Obj
            [
              ("program", Json.Str name);
              ("deflection_cycles", Json.Int native.W.Runner.cycles);
              ("interpreter_cycles", Json.Int icycles);
              ("slowdown", Json.Float slowdown);
            ])
      [ "NUMERIC SORT"; "ASSIGNMENT"; "FOURIER" ]
  in
  printf
    "\nTCB delta: the interpreter architecture moves the whole frontend (%.1f kLoC)\n\
     inside the enclave; DEFLECTION's verifier is ~0.8 kLoC and the compiler stays\n\
     untrusted.\n"
    Deflection_runtimes.Interp_baseline.tcb_kloc;
  record "related" (Json.List rows)

(* ------------------------------------------------------------------ *)
(* Profiler: sampled hotspots of one nBench workload under P1-P6 *)

let profile () =
  hr "Sampling profiler: NUMERIC SORT under P1-P6 (cycle-driven PC samples)";
  let b = List.nth W.Nbench.all 0 in
  let interval = 64 in
  let profiler = Profiler.create ~interval () in
  let m =
    match W.Runner.run ~policies:Policy.Set.p1_p6 ~tm ~profiler b.W.Nbench.source with
    | Ok m -> m
    | Error e -> failwith ("profile section failed: " ^ e)
  in
  let samples = Profiler.samples_total profiler in
  printf "cycles %d, sampling interval %d -> %d samples (retired %d instructions)\n\n"
    m.W.Runner.cycles interval samples (Profiler.retired profiler);
  printf "%-24s %10s %8s\n" "hot site" "samples" "share";
  let hot = Profiler.hotspots profiler in
  List.iteri
    (fun i (h : Profiler.hotspot) ->
      if i < 10 then
        printf "%-24s %10d %7.1f%%\n"
          (Printf.sprintf "%s;+0x%x" h.Profiler.func h.Profiler.offset)
          h.Profiler.count
          (100.0 *. float_of_int h.Profiler.count /. float_of_int samples))
    hot;
  Fs.mkdir_p results_dir;
  let path = Filename.concat results_dir "profile-numeric-sort.json" in
  write_json path (Profiler.to_json ~cycles:m.W.Runner.cycles profiler);
  printf "\nprofile written to %s\n" path;
  record "profile"
    (Json.Obj
       [
         ("workload", Json.Str b.W.Nbench.name);
         ("interval", Json.Int interval);
         ("cycles", Json.Int m.W.Runner.cycles);
         ("samples", Json.Int samples);
         ("retired_instructions", Json.Int (Profiler.retired profiler));
         ("distinct_sites", Json.Int (List.length hot));
         ("output", Json.Str path);
       ])

(* ------------------------------------------------------------------ *)
(* Chaos campaign: seeded fault plans held against the fail-closed oracle *)

let chaos () =
  hr "Chaos campaign: seeded fault injection vs the fail-closed oracle";
  let seeds = if !quick then 20 else 50 in
  let report = Deflection.Campaign.run ~base_seed:1L ~seeds () in
  let json = Deflection.Campaign.report_to_json report in
  let violations = Deflection.Campaign.violations report in
  let failed =
    List.length
      (List.filter
         (fun (c : Deflection.Campaign.case) ->
           not (Deflection_chaos.Oracle.ok c.Deflection.Campaign.verdict))
         report.Deflection.Campaign.cases)
  in
  printf "%d plans, %d passed, %d failed, %d fail-closed violation(s)\n\n" seeds
    (seeds - failed) failed violations;
  printf "%-18s %10s\n" "fault site" "injected";
  List.iter
    (fun (site, n) -> printf "%-18s %10d\n" site n)
    (Deflection.Campaign.histogram report);
  Fs.mkdir_p results_dir;
  let path = Filename.concat results_dir "chaos.json" in
  write_json path json;
  printf "\ncampaign report written to %s\n" path;
  record "chaos"
    (Json.Obj
       [
         ("seeds", Json.Int seeds);
         ("passed", Json.Int (seeds - failed));
         ("failed", Json.Int failed);
         ("violations", Json.Int violations);
         ("output", Json.Str path);
       ])

(* ------------------------------------------------------------------ *)
(* Fuzz campaign: differential oracles over generated programs and
   adversarial mutants, plus verifier wall-clock throughput *)

let fuzz () =
  hr "Fuzz campaign: differential + soundness oracles and verifier throughput";
  let module Fuzz = Deflection_fuzz.Fuzz in
  let module Gen = Deflection_fuzz.Gen in
  let n = if !quick then 30 else 100 in
  let report = Fuzz.campaign ~base_seed:1L ~programs:n ~mutants:n () in
  printf "%d programs (%d clean), %d mutants (%d rejected, %d ran clean), %d failure(s)\n"
    report.Fuzz.programs report.Fuzz.programs_clean report.Fuzz.mutants
    report.Fuzz.mutants_rejected report.Fuzz.mutants_clean
    (List.length report.Fuzz.failures);
  printf "self-tests: planted bad mutant %s, planted raw store %s\n"
    (if report.Fuzz.selftest_rejection_caught then "caught" else "MISSED")
    (if report.Fuzz.selftest_monitor_caught then "caught" else "MISSED");
  (* verifier throughput: wall-clock verify over a compiled corpus *)
  let corpus =
    List.filter_map
      (fun i ->
        let seed = Deflection_util.Prng.derive 1L ~label:(Printf.sprintf "fuzz.prog.%d" i) in
        let g = Gen.generate ~seed in
        Result.to_option
          (Deflection_compiler.Frontend.compile ~policies:Policy.Set.p1_p6
             ~ssa_q:Manifest.default.Manifest.ssa_q g.Gen.source))
      (List.init (if !quick then 10 else 25) Fun.id)
  in
  let t0 = Unix.gettimeofday () in
  let reps = 8 in
  let instrs = ref 0 in
  for _ = 1 to reps do
    List.iter
      (fun obj ->
        match
          Deflection_verifier.Verifier.verify ~policies:Policy.Set.p1_p6
            ~ssa_q:Manifest.default.Manifest.ssa_q obj
        with
        | Ok r -> instrs := !instrs + r.Deflection_verifier.Verifier.instructions_checked
        | Error _ -> failwith "fuzz bench: corpus program rejected")
      corpus
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let throughput = if dt > 0.0 then float_of_int !instrs /. dt else 0.0 in
  printf "verifier throughput: %d instructions in %.3fs = %.0f instr/s\n" !instrs dt
    throughput;
  record "fuzz"
    (Json.Obj
       [
         ("programs", Json.Int report.Fuzz.programs);
         ("programs_clean", Json.Int report.Fuzz.programs_clean);
         ("mutants", Json.Int report.Fuzz.mutants);
         ("mutants_rejected", Json.Int report.Fuzz.mutants_rejected);
         ("mutants_clean", Json.Int report.Fuzz.mutants_clean);
         ("failures", Json.Int (List.length report.Fuzz.failures));
         ("selftest_rejection_caught", Json.Bool report.Fuzz.selftest_rejection_caught);
         ("selftest_monitor_caught", Json.Bool report.Fuzz.selftest_monitor_caught);
         ("verify_instructions", Json.Int !instrs);
         ("verify_seconds", Json.Float dt);
         ("verify_instr_per_sec", Json.Float throughput);
       ])

(* ------------------------------------------------------------------ *)
(* Witnessed verification: cold-verify throughput of the proof-carrying
   replay tier against the recursive descent over the same compiled
   corpus. Before timing, the section asserts the two tiers agree
   verdict-for-verdict and that a doctored witness rejects in the Witness
   pass — a fast replay that lies would be worse than a slow descent.
   [witness_instr_per_sec] is benchdiff-tracked
   (verifier.witness_instr_per_sec). *)

let witness () =
  let module Verifier = Deflection_verifier.Verifier in
  let module Gen = Deflection_fuzz.Gen in
  let module Mutate = Deflection_fuzz.Mutate in
  let n_prog = if !quick then 8 else 24 in
  let reps = if !quick then 10 else 40 in
  hr
    (Printf.sprintf "Witnessed verification: descent vs replay (%d programs x %d reps)" n_prog
       reps);
  let corpus =
    List.init n_prog (fun i ->
        let g = Gen.generate ~seed:(Int64.of_int (i + 1)) in
        Deflection_compiler.Frontend.compile_exn ~policies:Policy.Set.p1_p6 ~ssa_q:20
          g.Gen.source)
  in
  (* verdict equality: the replay must reproduce the descent's report *)
  List.iter
    (fun obj ->
      match
        ( Verifier.verify_classified ~policies:Policy.Set.p1_p6 ~ssa_q:20 obj,
          Verifier.verify_witnessed ~policies:Policy.Set.p1_p6 ~ssa_q:20 obj )
      with
      | Ok (rd, _), Ok (rw, _) when rd = rw -> ()
      | _ -> failwith "witness bench: tiers disagree on a compiler-produced binary")
    corpus;
  (* adversarial sanity: a doctored witness must reject in the Witness pass *)
  List.iter
    (fun obj ->
      let doctored = Mutate.apply_witness obj [ Mutate.Wflip_digest ] in
      match Verifier.verify_witnessed ~policies:Policy.Set.p1_p6 ~ssa_q:20 doctored with
      | Error { Verifier.pass = Verifier.Witness; _ } -> ()
      | Ok _ | Error _ -> failwith "witness bench: doctored witness was not rejected")
    corpus;
  let time verify =
    let t0 = Unix.gettimeofday () in
    let instrs = ref 0 in
    for _ = 1 to reps do
      List.iter
        (fun obj ->
          match verify obj with
          | Ok (r, _) -> instrs := !instrs + r.Verifier.instructions_checked
          | Error _ -> failwith "witness bench: corpus program rejected")
        corpus
    done;
    let dt = Unix.gettimeofday () -. t0 in
    (!instrs, dt, if dt > 0.0 then float_of_int !instrs /. dt else 0.0)
  in
  let di, dd, descent_ips =
    time (fun o -> Verifier.verify_classified ~policies:Policy.Set.p1_p6 ~ssa_q:20 o)
  in
  let wi, wd, witness_ips =
    time (fun o -> Verifier.verify_witnessed ~policies:Policy.Set.p1_p6 ~ssa_q:20 o)
  in
  let speedup = if descent_ips > 0.0 then witness_ips /. descent_ips else 0.0 in
  printf "descent   %10.0f instr/s (%d instructions, %.3fs)\n" descent_ips di dd;
  printf "witnessed %10.0f instr/s (%d instructions, %.3fs)\n" witness_ips wi wd;
  printf "cold-verify speedup: %.2fx (witnessed replay over recursive descent)\n" speedup;
  record "witness"
    (Json.Obj
       [
         ("programs", Json.Int n_prog);
         ("reps", Json.Int reps);
         ("descent_instr_per_sec", Json.Float descent_ips);
         ("witness_instr_per_sec", Json.Float witness_ips);
         ("speedup_x", Json.Float speedup);
         ("verdicts_equal", Json.Bool true);
         ("doctored_witness_rejected", Json.Bool true);
       ])

(* ------------------------------------------------------------------ *)
(* Gateway: verify-once/admit-many batch serving. Cold = every session
   compiles and verifies its own delivery, sequentially (the paper's
   one-enclave-per-client baseline). Warm = shared verdict cache,
   pre-warmed, compile-once sharing, at increasing domain fan-out. *)

(* Code-heavy, run-light service: many small annotated functions, each
   called once, so compile+verify dominates a session and the
   verify-once/admit-many fast path has something to amortize. *)
let gateway_source () =
  let b = Buffer.create 4096 in
  let funcs = if !quick then 64 else 160 in
  for i = 0 to funcs - 1 do
    Buffer.add_string b
      (Printf.sprintf
         "int f%d(int x) { int a[8]; a[x %% 8] = x + %d; a[(x + 1) %% 8] = a[x %% 8] * 3; \
          return a[x %% 8] + a[(x + 1) %% 8]; }\n"
         i i)
  done;
  Buffer.add_string b "int main() {\n  int s = 0;\n";
  for i = 0 to funcs - 1 do
    Buffer.add_string b (Printf.sprintf "  s = s + f%d(%d);\n" i i)
  done;
  Buffer.add_string b "  print_int(s);\n  return 0;\n}\n";
  Buffer.contents b

let gateway () =
  let module Gateway = Deflection_gateway.Gateway in
  let module Verifier = Deflection_verifier.Verifier in
  let sessions = if !quick then 4 else 8 in
  hr (Printf.sprintf "Gateway: verify-once/admit-many (%d-session same-binary batch)" sessions);
  let src = gateway_source () in
  let mk_jobs () =
    List.init sessions (fun i ->
        Gateway.job ~label:(Printf.sprintf "s%d" i) ~seed:(Int64.of_int (i + 1)) src)
  in
  let assert_clean what (batch : Gateway.batch) =
    List.iter
      (fun (r : Gateway.session_result) ->
        if r.Gateway.exit_code <> 0 then
          failwith (Printf.sprintf "gateway bench: %s session %s exited %d" what
               r.Gateway.label r.Gateway.exit_code))
      batch.Gateway.results
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* the default layout: 96 annotated functions overflow the small test
     map's 64KB code region *)
  let config =
    { Deflection.Bootstrap.default_config with layout = Deflection_enclave.Layout.default_config }
  in
  let warm cache = { config with verifier_cache = Some cache } in
  let cold_batch, cold_dt = time (fun () -> Gateway.run_batch ~jobs:1 ~config (mk_jobs ())) in
  assert_clean "cold" cold_batch;
  let cold_rate = if cold_dt > 0. then float_of_int sessions /. cold_dt else 0. in
  printf "cold sequential:     %6.3fs  %7.1f sessions/s\n" cold_dt cold_rate;
  let fanouts = if !quick then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  let warm_rows =
    List.map
      (fun k ->
        let cache = Verifier.Cache.create () in
        let prewarm =
          Gateway.run_batch ~jobs:1 ~config:(warm cache)
            [ Gateway.job ~label:"prewarm" ~seed:1L src ]
        in
        assert_clean "prewarm" prewarm;
        let batch, dt =
          time (fun () -> Gateway.run_batch ~jobs:k ~config:(warm cache) (mk_jobs ()))
        in
        assert_clean "warm" batch;
        let stats = Option.get batch.Gateway.cache_stats in
        let rate = if dt > 0. then float_of_int sessions /. dt else 0. in
        printf "warm cache, jobs=%d:  %6.3fs  %7.1f sessions/s  (%d hits / %d misses)\n" k dt
          rate stats.Verifier.Cache.hits stats.Verifier.Cache.misses;
        (k, dt, rate, stats))
      fanouts
  in
  let _, _, warm1_rate, _ = List.hd warm_rows in
  let speedup = if cold_rate > 0. then warm1_rate /. cold_rate else 0. in
  printf "warm/cold throughput at jobs=1: %.2fx\n" speedup;
  (* Audit-plane overhead: the same warm jobs=1 batch with and without
     the hash-chained admission log attached, best of [reps] so a stray
     scheduler hiccup doesn't masquerade as chaining cost. The stated
     budget (25%) is documentation, not a gate — benchdiff tracks the
     session rates; this row makes the audit tax itself visible. *)
  let module Audit = Deflection_audit.Audit in
  let module Attestation = Deflection_attestation.Attestation in
  let reps = 3 in
  let best f =
    let rec go best n =
      if n = 0 then best
      else
        let _, dt = time f in
        go (min best dt) (n - 1)
    in
    go infinity reps
  in
  let warm_run ?audit () =
    let config = warm (Verifier.Cache.create ()) in
    let prewarm =
      Gateway.run_batch ~jobs:1 ~config [ Gateway.job ~label:"prewarm" ~seed:1L src ]
    in
    assert_clean "prewarm" prewarm;
    let audit = Option.map (fun log -> { Audit.log; lane = 0 }) audit in
    let batch = Gateway.run_batch ~jobs:1 ~config:{ config with audit } (mk_jobs ()) in
    assert_clean "audit" batch;
    batch
  in
  let off_dt = best (fun () -> warm_run ()) in
  let platform = Attestation.Platform.create ~seed:42L in
  let audit_log = Audit.Log.create ~platform () in
  let on_dt = best (fun () -> warm_run ~audit:audit_log ()) in
  let audit_records = Audit.Log.length audit_log in
  let audit_rate = if on_dt > 0. then float_of_int sessions /. on_dt else 0. in
  let overhead_pct = if off_dt > 0. then (on_dt -. off_dt) /. off_dt *. 100. else 0. in
  printf "audit plane, jobs=1: %6.3fs  %7.1f records/s  (%+.1f%% vs audit-off, budget 25%%)\n"
    on_dt audit_rate overhead_pct;
  (* per-pass verifier attribution, from a telemetry-enabled cold session
     of the same binary: where a fresh verifier pass actually spends its
     time (Hdr families observed by the gateway's latency plane) *)
  let tm = Deflection_telemetry.Telemetry.create () in
  let pass_batch = Gateway.run_batch ~jobs:1 ~config ~tm (mk_jobs ()) in
  assert_clean "pass" pass_batch;
  let pass_families =
    List.filter
      (fun (name, _) -> String.length name > 14 && String.sub name 0 14 = "verifier.pass.")
      pass_batch.Gateway.latencies
  in
  List.iter
    (fun (name, h) ->
      printf "  %-24s p50 %8d ns  p99 %8d ns  (%d samples)\n" name
        (Deflection_telemetry.Hdr.quantile h 0.50)
        (Deflection_telemetry.Hdr.quantile h 0.99)
        (Deflection_telemetry.Hdr.count h))
    pass_families;
  record "gateway"
    (Json.Obj
       [
         ("sessions", Json.Int sessions);
         ("cold_seconds", Json.Float cold_dt);
         ("cold_sessions_per_s", Json.Float cold_rate);
         ( "warm",
           Json.List
             (List.map
                (fun (k, dt, rate, (stats : Verifier.Cache.stats)) ->
                  Json.Obj
                    [
                      ("jobs", Json.Int k);
                      ("seconds", Json.Float dt);
                      ("sessions_per_s", Json.Float rate);
                      ("cache_hits", Json.Int stats.Verifier.Cache.hits);
                      ("cache_misses", Json.Int stats.Verifier.Cache.misses);
                    ])
                warm_rows) );
         ("warm_over_cold_x", Json.Float speedup);
         ( "audit",
           Json.Obj
             [
               ("records", Json.Int audit_records);
               ("seconds", Json.Float on_dt);
               ("records_per_s", Json.Float audit_rate);
               ("audit_off_seconds", Json.Float off_dt);
               ("overhead_pct", Json.Float overhead_pct);
               ("budget_pct", Json.Float 25.);
             ] );
         ( "verifier_pass_ns",
           Json.Obj
             (List.map
                (fun (name, h) -> (name, Deflection_telemetry.Hdr.to_json h))
                pass_families) );
       ])

(* ------------------------------------------------------------------ *)
(* Persistent multi-tenant server: saturation throughput under 2x
   overload (typed shedding), admitted-session latency percentiles, and
   the warm-after-restart vs cold ratio the sealed verdict cache buys. *)

let server () =
  hr "Persistent server (VI-B context: verify-once amortised across restarts)";
  let module Server = Deflection_server.Server in
  let rounds = if !quick then 4 else 10 in
  let batch = 8 in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "deflection-bench-server" in
  Fs.mkdir_p dir;
  let clean () =
    List.iter
      (fun f ->
        let p = Filename.concat dir f in
        if Sys.file_exists p then Sys.remove p)
      [ "verdict-cache.json"; "verdict-cache.json.1"; "verdict-cache.json.tmp" ]
  in
  let cfg =
    {
      Server.default_config with
      Server.queue_capacity = 2 * batch;
      batch_size = batch;
      workers = (if !quick then 2 else 4);
      seed = 21L;
      state_dir = Some dir;
      persist_every = 1;
    }
  in
  let run () =
    let s = Server.create cfg in
    let t0 = Unix.gettimeofday () in
    (match Server.serve_load s ~offered:(2 * batch * rounds) ~rounds with
    | `Done -> ()
    | `Killed -> failwith "bench server died without a chaos engine");
    (s, Unix.gettimeofday () -. t0)
  in
  (* saturation: offer 2x what batch*rounds can admit; the excess must be
     shed (typed), never queued unboundedly *)
  clean ();
  let cold, cold_dt = run () in
  let doc = Server.doc cold in
  let geti k = match Json.member k doc with Some (Json.Int n) -> n | _ -> 0 in
  let offered = geti "offered"
  and admitted = geti "admitted"
  and shed = geti "shed"
  and rejected = geti "rejected" in
  let shed_rate = if offered > 0 then 100. *. float_of_int shed /. float_of_int offered else 0. in
  let sat_rate = if cold_dt > 0. then float_of_int admitted /. cold_dt else 0. in
  printf "saturation (2x capacity): %d offered -> %d admitted, %d shed (%.1f%%), %d rejected\n"
    offered admitted shed shed_rate rejected;
  printf "cold serve:          %6.3fs  %7.1f admitted sessions/s\n" cold_dt sat_rate;
  (* admitted-session latency percentiles; the resilience stage budget
     (default 10s per protocol stage) is the documented p99 bound *)
  let session_q p =
    match Json.member "timing" doc with
    | Some timing -> (
      match Json.member "latency_ns" timing with
      | Some (Json.Obj fams) -> (
        match List.assoc_opt "session" fams with
        | Some body -> (
          match Json.member p body with Some (Json.Int n) -> n | _ -> 0)
        | None -> 0)
      | _ -> 0)
    | None -> 0
  in
  let p50 = session_q "p50" and p95 = session_q "p95" and p99 = session_q "p99" in
  printf "admitted session latency: p50 %.2f ms  p95 %.2f ms  p99 %.2f ms (budget: 10s stage timeout)\n"
    (float_of_int p50 /. 1e6) (float_of_int p95 /. 1e6) (float_of_int p99 /. 1e6);
  (* restart against the sealed state: the same workload replays warm *)
  let warm, warm_dt = run () in
  let wdoc = Server.doc warm in
  let wgeti k = match Json.member k wdoc with Some (Json.Int n) -> n | _ -> 0 in
  let w_hits = wgeti "warm_hits" and w_misses = wgeti "cold_misses" in
  let warm_ratio =
    if w_hits + w_misses > 0 then float_of_int w_hits /. float_of_int (w_hits + w_misses) else 0.
  in
  let warm_over_cold = if warm_dt > 0. then cold_dt /. warm_dt else 0. in
  printf "warm restart:        %6.3fs  %.2fx vs cold  (hit ratio %.2f, %d preloaded)\n" warm_dt
    warm_over_cold warm_ratio (wgeti "preloaded");
  clean ();
  record "server"
    (Json.Obj
       [
         ("rounds", Json.Int rounds);
         ("offered", Json.Int offered);
         ("admitted", Json.Int admitted);
         ("shed", Json.Int shed);
         ("shed_rate_pct", Json.Float shed_rate);
         ("saturation_sessions_per_s", Json.Float sat_rate);
         ("session_p50_ns", Json.Int p50);
         ("session_p95_ns", Json.Int p95);
         ("session_p99_ns", Json.Int p99);
         ("stage_budget_ms", Json.Int 10_000);
         ("cold_seconds", Json.Float cold_dt);
         ("warm_seconds", Json.Float warm_dt);
         ("warm_over_cold_x", Json.Float warm_over_cold);
         ("warm_hit_ratio_after_restart", Json.Float warm_ratio);
         ("preloaded", Json.Int (wgeti "preloaded"));
       ])

(* ------------------------------------------------------------------ *)
(* Key-agreement arithmetic: the M521 modular exponentiation behind every
   RA handshake, timed per call as the median of [reps] repetitions with
   its median absolute deviation. [dh_ops_per_s] (one Dh.generate or one
   Dh.shared_secret per op on the default group) is benchdiff-tracked as
   crypto.dh_ops_per_s. *)

let median_mad xs =
  let median = Deflection_telemetry.Benchdiff.median in
  let m = median xs in
  (m, median (List.map (fun x -> Float.abs (x -. m)) xs))

let crypto () =
  let module B = Deflection_crypto.Bignum in
  let module Dh = Deflection_crypto.Dh in
  let reps = if !quick then 21 else 101 in
  let per_rep = 5 in
  hr
    (Printf.sprintf "Key-agreement arithmetic: M521 mod_pow (median of %d x %d calls)" reps
       per_rep);
  let prng = Deflection_util.Prng.create 1L in
  let group = Dh.default_group in
  (* one warm-up call per operation, then [reps] timed batches *)
  let time_ms f =
    ignore (f ());
    let one_rep () =
      let t0 = Unix.gettimeofday () in
      for _ = 1 to per_rep do
        ignore (Sys.opaque_identity (f ()))
      done;
      (Unix.gettimeofday () -. t0) *. 1000.0 /. float_of_int per_rep
    in
    median_mad (List.init reps (fun _ -> one_rep ()))
  in
  let a = Dh.generate prng and b = Dh.generate prng in
  let rows =
    [
      ("mod_pow_g3", time_ms (fun () -> B.mod_pow group.Dh.g a.Dh.secret group.Dh.p));
      ("mod_pow_general", time_ms (fun () -> B.mod_pow b.Dh.public a.Dh.secret group.Dh.p));
      ("dh_generate", time_ms (fun () -> Dh.generate prng));
      ("dh_shared", time_ms (fun () -> Dh.shared_secret a b.Dh.public));
    ]
  in
  List.iter (fun (name, (m, mad)) -> printf "  %-16s %8.3f ms  (MAD %.3f)\n" name m mad) rows;
  let agree = Bytes.equal (Dh.shared_secret a b.Dh.public) (Dh.shared_secret b a.Dh.public) in
  let gen = fst (List.assoc "dh_generate" rows) and shared = fst (List.assoc "dh_shared" rows) in
  let ops_per_s = 2000.0 /. (gen +. shared) in
  printf "  dh ops/s %.0f; both sides agree on the shared secret: %b\n" ops_per_s agree;
  record "crypto"
    (Json.Obj
       (List.concat_map
          (fun (name, (m, mad)) ->
            [ (name ^ "_ms", Json.Float m); (name ^ "_mad_ms", Json.Float mad) ])
          rows
       @ [
           ("reps", Json.Int reps);
           ("calls_per_rep", Json.Int per_rep);
           ("dh_ops_per_s", Json.Float ops_per_s);
           ("shared_agree", Json.Bool agree);
         ]))

(* ------------------------------------------------------------------ *)
(* Bechamel wall-clock micro-benchmarks: one per table/figure pipeline *)

let micro () =
  hr "Bechamel micro-benchmarks (wall clock; one per experiment pipeline)";
  let open Bechamel in
  let sample_src = (List.nth W.Nbench.all 0).W.Nbench.source in
  let obj = Deflection_compiler.Frontend.compile_exn ~policies:Policy.Set.p1_p6 sample_src in
  let serialized = Deflection_isa.Objfile.serialize obj in
  let layout = Deflection_enclave.Layout.make Deflection_enclave.Layout.small_config in
  let tests =
    [
      Test.make ~name:"table1.measurement"
        (Staged.stage (fun () ->
             ignore
               (Deflection_enclave.Measurement.measure layout
                  ~consumer_code:(Bytes.make 4096 'c'))));
      Test.make ~name:"table2.compile+instrument"
        (Staged.stage (fun () ->
             ignore
               (Deflection_compiler.Frontend.compile_exn ~policies:Policy.Set.p1_p6 sample_src)));
      Test.make ~name:"fig7.verify"
        (Staged.stage (fun () ->
             ignore
               (Deflection_verifier.Verifier.verify ~policies:Policy.Set.p1_p6
                  ~ssa_q:Manifest.default.Manifest.ssa_q obj)));
      Test.make ~name:"fig8.load+rewrite"
        (Staged.stage (fun () ->
             let mem = Deflection_enclave.Memory.create layout in
             let loaded =
               Result.get_ok (Deflection_loader.Loader.load mem ~aex_threshold:1000 obj)
             in
             ignore
               (Result.get_ok
                  (Deflection_loader.Loader.rewrite_imms mem loaded ~policies:Policy.Set.p1_p6))));
      Test.make ~name:"fig9.objfile-parse"
        (Staged.stage (fun () -> ignore (Deflection_isa.Objfile.deserialize serialized)));
      Test.make
        ~name:"fig10.record-seal-1KiB"
        (let key = Bytes.make 32 'k' in
         let ch = Deflection_crypto.Channel.create ~key in
         Staged.stage (fun () ->
             ignore (Deflection_crypto.Channel.seal_padded ch ~pad_to:1024 (Bytes.make 100 'x'))));
      Test.make ~name:"fig11.sha256-4KiB"
        (let data = Bytes.make 4096 'd' in
         Staged.stage (fun () -> ignore (Deflection_crypto.Sha256.digest data)));
    ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let rows = ref [] in
  List.iter
    (fun t ->
      let results = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] t in
      let analyzed =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          (Toolkit.Instance.monotonic_clock) results
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] ->
            rows := (name, Json.Float est) :: !rows;
            printf "  %-30s %12.0f ns/run\n" name est
          | Some _ | None -> printf "  %-30s (no estimate)\n" name)
        analyzed)
    tests;
  record "micro" (Json.Obj (List.rev !rows))

(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args = List.filter (fun a -> a <> "--") args in
  quick := List.mem "--quick" args;
  let args = List.filter (fun a -> a <> "--quick") args in
  let all =
    [
      ("table1", table1); ("table2", table2); ("tier", tier); ("fig7", fig7); ("fig8", fig8);
      ("fig9", fig9);
      ("fig10", fig10); ("fig11", fig11); ("ablation", ablation); ("related", related);
      ("profile", profile); ("chaos", chaos); ("fuzz", fuzz); ("witness", witness);
      ("gateway", gateway); ("server", server); ("crypto", crypto); ("micro", micro);
    ]
  in
  let selected =
    if args = [] then all
    else
      List.map
        (fun a ->
          match List.assoc_opt a all with
          | Some f -> (a, f)
          | None -> failwith ("unknown section " ^ a))
        args
  in
  printf "DEFLECTION evaluation reproduction (deterministic virtual cycles)\n";
  List.iter (fun (_, f) -> f ()) selected;
  write_results ();
  printf "\nDone.\n"
