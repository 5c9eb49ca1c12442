module Session = Deflection.Session
module Bootstrap = Deflection.Bootstrap
module Policy = Deflection_policy.Policy
module Manifest = Deflection_policy.Manifest
module Verifier = Deflection_verifier.Verifier
module Frontend = Deflection_compiler.Frontend
module Objfile = Deflection_isa.Objfile
module Telemetry = Deflection_telemetry.Telemetry
module Hdr = Deflection_telemetry.Hdr
module Audit = Deflection_audit.Audit

type job = {
  label : string;
  source : string;
  compile_policies : Policy.Set.t option;
  inputs : bytes list;
  seed : int64;
}

let job ?compile_policies ?(inputs = []) ?(seed = 1L) ~label source =
  { label; source; compile_policies; inputs; seed }

type session_result = {
  label : string;
  seed : int64;
  outcome : (Session.outcome, Session.error) result;
  exit_code : int;
}

type batch = {
  results : session_result list;
  counters : (string * int) list;
  cache_stats : Verifier.Cache.stats option;
  distinct_binaries : int;
  workers : int;
  latencies : (string * Hdr.t) list;
  trace : Telemetry.snapshot option;
}

(* The key under which a job's compiled binary is shared: two jobs share
   one compile exactly when source text and effective annotation policy
   set coincide. *)
let compile_key ~policies j =
  let pols = match j.compile_policies with Some p -> p | None -> policies in
  Policy.Set.label pols ^ "\x00" ^ j.source

let bump tbl k v =
  Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))

(* Stage latencies ride on the session span tree: every completed span's
   wall duration lands in a per-worker log-bucketed histogram under the
   span's name, plus a whole-session family split by verdict-cache
   outcome. Worker instances merge exactly at join (Hdr.merge), so the
   batch's percentile block is the same histogram a serial run would
   have accumulated — only the recorded durations themselves are
   timing-variant. The verifier's per-pass nanosecond counters ride the
   same merge: each session contributes one sample per pass family
   ([verifier.pass.decode], [verifier.pass.p5_cfi], ...). *)
let pass_ns_prefix = "verifier.pass_ns."

let observe_session_latencies lat (snap : Telemetry.snapshot) =
  let observe name v =
    let h =
      match Hashtbl.find_opt lat name with
      | Some h -> h
      | None ->
        let h = Hdr.create () in
        Hashtbl.add lat name h;
        h
    in
    Hdr.observe h v
  in
  let cache_family =
    if Option.value ~default:0 (List.assoc_opt "verifier.cache.hit" snap.Telemetry.counters) > 0
    then Some "session.cache_hit"
    else if
      Option.value ~default:0 (List.assoc_opt "verifier.cache.miss" snap.Telemetry.counters)
      > 0
    then Some "session.cache_miss"
    else None
  in
  List.iter
    (fun (s : Telemetry.span_info) ->
      let dur = s.Telemetry.stop_ns - s.Telemetry.start_ns in
      observe s.Telemetry.sname dur;
      if s.Telemetry.sname = "session" then
        match cache_family with Some f -> observe f dur | None -> ())
    snap.Telemetry.spans;
  List.iter
    (fun (name, (h : Telemetry.hist_summary)) ->
      let lp = String.length pass_ns_prefix in
      if String.length name > lp && String.sub name 0 lp = pass_ns_prefix then
        observe ("verifier.pass." ^ String.sub name lp (String.length name - lp))
          h.Telemetry.h_sum)
    snap.Telemetry.histograms

(* Fold named histograms into a table of families, creating each family
   on first sight: the one exact, order-independent merge behind both the
   per-worker join below and a server's run-long latency plane. *)
let merge_latencies into families =
  List.iter
    (fun (name, h) ->
      match Hashtbl.find_opt into name with
      | Some acc -> Hdr.merge_into ~into:acc h
      | None ->
        let acc = Hdr.create ~sub_bits:(Hdr.sub_bits h) () in
        Hdr.merge_into ~into:acc h;
        Hashtbl.add into name acc)
    families

let run_batch ?(jobs = 1) ?(config = Bootstrap.default_config) ?(tm = Telemetry.disabled)
    (job_list : job list) : batch =
  if jobs < 1 then invalid_arg "Gateway.run_batch: jobs must be >= 1";
  let policies = config.Bootstrap.policies and cache = config.Bootstrap.verifier_cache in
  let js = Array.of_list job_list in
  let n = Array.length js in
  (* Compile-once sharing rides with the cache: the warm path compiles
     each distinct (source, policy set) a single time up front and hands
     the shared objfile to every session; the cold path (no cache) keeps
     the paper's baseline shape, every session compiling and verifying
     its own delivery. *)
  let compiled : (string, (Objfile.t, Frontend.error) result) Hashtbl.t = Hashtbl.create 8 in
  let distinct = ref 0 in
  if Option.is_some cache then
    Array.iter
      (fun j ->
        let k = compile_key ~policies j in
        if not (Hashtbl.mem compiled k) then begin
          incr distinct;
          let pols = match j.compile_policies with Some p -> p | None -> policies in
          Hashtbl.add compiled k
            (Frontend.compile ~policies:pols ~ssa_q:config.Bootstrap.manifest.Manifest.ssa_q
               j.source)
        end)
      js;
  let results : session_result option array = Array.make n None in
  let next = Atomic.make 0 in
  (* Per-session trace retention is only paid when the caller attached a
     tracing batch registry: each session then records into its own ring
     sink, and the per-worker snapshot lists are grafted under the batch
     root span at join. *)
  let collect_trace = Telemetry.tracing tm in
  (* Work-stealing dispatch over an atomic index: each slot of [results]
     is written by exactly one worker, each worker folds its sessions'
     counters and stage latencies into private tables, and the tables
     are summed/merged after the join — so neither the result array nor
     the merged counters depend on which domain ran which job. Worker
     [w] appends its admission records under audit lane [w] (lane 0 is
     the calling domain); the log itself serialises appends, and the
     record {e set} — everything but seq/lane — stays
     schedule-independent. *)
  let worker w () =
    let audit = Option.map (fun sink -> { sink with Audit.lane = w }) config.Bootstrap.audit in
    let counters : (string, int) Hashtbl.t = Hashtbl.create 64 in
    let lat : (string, Hdr.t) Hashtbl.t = Hashtbl.create 16 in
    let snaps_rev = ref [] in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let j = js.(i) in
        let stm =
          if collect_trace then
            Telemetry.create ~sink:(Telemetry.Sink.ring ~capacity:4096) ()
          else Telemetry.create ()
        in
        let outcome =
          match
            if Option.is_some cache then Hashtbl.find_opt compiled (compile_key ~policies j)
            else None
          with
          | Some (Error e) -> Error (Session.Compile_error e)
          | pre ->
            let precompiled = match pre with Some (Ok obj) -> Some obj | _ -> None in
            Session.admit ?precompiled ~tm:stm
              { config with Bootstrap.seed = j.seed; audit }
              ~source:j.source ~inputs:j.inputs
        in
        (* fold this session's counters in whether it succeeded or not:
           failed sessions still did attestation/verification work *)
        let snap = Telemetry.snapshot stm in
        List.iter (fun (k, v) -> bump counters k v) snap.Telemetry.counters;
        observe_session_latencies lat snap;
        if collect_trace then snaps_rev := snap :: !snaps_rev;
        results.(i) <-
          Some
            {
              label = j.label;
              seed = j.seed;
              outcome;
              exit_code = Session.process_exit_code outcome;
            };
        loop ()
      end
    in
    loop ();
    (counters, lat, List.rev !snaps_rev)
  in
  let k = max 1 (min jobs (max n 1)) in
  let tables =
    Telemetry.span tm "gateway.batch" @@ fun () ->
    if k = 1 then [ worker 0 () ]
    else begin
      let spawned = List.init (k - 1) (fun i -> Domain.spawn (worker (i + 1))) in
      let mine = worker 0 () in
      mine :: List.map Domain.join spawned
    end
  in
  let merged : (string, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun (t, _, _) -> Hashtbl.iter (fun key v -> bump merged key v) t) tables;
  let counters =
    Hashtbl.fold (fun key v acc -> (key, v) :: acc) merged []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let merged_lat : (string, Hdr.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (_, lat, _) -> merge_latencies merged_lat (List.of_seq (Hashtbl.to_seq lat)))
    tables;
  let latencies =
    Hashtbl.fold (fun key h acc -> (key, h) :: acc) merged_lat []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let trace =
    if collect_trace then
      Some
        (Telemetry.graft ~root:(Telemetry.snapshot tm)
           ~lanes:
             (List.mapi
                (fun i (_, _, snaps) -> (Printf.sprintf "worker.%d" i, snaps))
                tables))
    else None
  in
  {
    results = Array.to_list results |> List.map Option.get;
    counters;
    cache_stats = Option.map Verifier.Cache.stats cache;
    distinct_binaries = !distinct;
    workers = k;
    latencies;
    trace;
  }
