module Chaos = Deflection_chaos.Chaos
module Oracle = Deflection_chaos.Oracle
module Resilience = Deflection_chaos.Resilience
module Json = Deflection_telemetry.Json
module Sha256 = Deflection_crypto.Sha256
module Hex = Deflection_util.Hex
module Interp = Deflection_runtime.Interp

(* Two fixed workloads: one compliant service (the reference accepts and
   answers), one that trips a P1 store guard at runtime (the reference
   ends in a policy abort, exit 9) — so the campaign exercises both
   directions of the fail-closed argument: faults must not corrupt an
   accepting run unnoticed, and must not flip a rejecting run into an
   acceptance. *)
let workloads =
  [
    ( "sum-service",
      {|
int buf[16];
int main() {
  int n = recv(buf, 16);
  buf[15] = n;
  int s = 0;
  for (int i = 0; i < n; i = i + 1) { s = s + buf[i]; }
  print_int(s);
  send(buf, n);
  return 0;
}
|},
      [ Bytes.of_string "\x01\x02\x03\x04" ] );
    ( "oob-abort",
      {|
int buf[4];
int main() {
  int n = recv(buf, 4);
  buf[n * 30000] = 7;
  send(buf, 1);
  return 0;
}
|},
      [ Bytes.of_string "\x05" ] );
  ]

let workload_names = List.map (fun (n, _, _) -> n) workloads

(* one fixed session seed for reference and subject: the only difference
   between the two runs of a case is the fault plan *)
let session_seed = 42L

type case = {
  seed : int64;
  workload : string;
  plan : Chaos.plan;
  reference : Oracle.observation;
  subject : Oracle.observation;
  verdict : Oracle.verdict;
  fired : (string * int) list;
  retries : Resilience.stage_stats list;
}

type report = { base_seed : int64; cases : case list }

let digest_outputs outputs =
  let ctx = Sha256.init () in
  List.iter
    (fun o ->
      Sha256.update_string ctx (string_of_int (Bytes.length o) ^ ":");
      Sha256.update ctx o)
    outputs;
  Hex.encode (Sha256.finalize ctx)

let observe result =
  let exit_code = Session.process_exit_code result in
  match result with
  | Ok (o : Session.outcome) ->
    {
      Oracle.exit_code;
      accepted = true;
      leaked_bytes = o.Session.leaked_bytes;
      outputs_digest = digest_outputs o.Session.outputs;
    }
  | Error _ -> { Oracle.exit_code; accepted = false; leaked_bytes = 0; outputs_digest = "" }

let run_workload ?chaos name =
  let _, source, inputs =
    List.find (fun (n, _, _) -> String.equal n name) workloads
  in
  Session.admit ?chaos
    { Bootstrap.default_config with Bootstrap.seed = session_seed }
    ~source ~inputs

(* references are deterministic per workload; campaigns compute each once *)
let reference_for =
  let cache = Hashtbl.create 4 in
  fun name ->
    match Hashtbl.find_opt cache name with
    | Some obs -> obs
    | None ->
      let obs = observe (run_workload name) in
      Hashtbl.add cache name obs;
      obs

let pick_workload ~seed =
  let rng = Deflection_util.Prng.create (Deflection_util.Prng.derive seed ~label:"chaos-workload") in
  (* three compliant runs for every rejecting one *)
  if Deflection_util.Prng.int rng 4 = 3 then List.nth workload_names 1
  else List.hd workload_names

let divergence_allowed plan =
  List.exists (function Chaos.Mem_flip _ -> true | _ -> false) plan.Chaos.faults

let run_case ~seed =
  let plan = Chaos.generate ~seed in
  let workload = pick_workload ~seed in
  let reference = reference_for workload in
  let engine = Chaos.of_plan plan in
  let result = run_workload ~chaos:engine workload in
  let subject = observe result in
  let verdict =
    Oracle.check ~reference ~subject ~divergence_allowed:(divergence_allowed plan)
  in
  let retries =
    match result with Ok o -> o.Session.retries | Error _ -> []
  in
  { seed; workload; plan; reference; subject; verdict; fired = Chaos.fired engine; retries }

let run ?(base_seed = 1L) ~seeds () =
  {
    base_seed;
    cases = List.init seeds (fun i -> run_case ~seed:(Int64.add base_seed (Int64.of_int i)));
  }

let violations report =
  List.fold_left (fun acc c -> acc + List.length c.verdict.Oracle.violations) 0 report.cases

let histogram report =
  List.map
    (fun site ->
      let key = Chaos.site_label site in
      ( key,
        List.fold_left
          (fun acc c -> acc + (try List.assoc key c.fired with Not_found -> 0))
          0 report.cases ))
    Chaos.all_sites

let stage_stats_to_json (s : Resilience.stage_stats) =
  Json.Obj
    [
      ("stage", Json.Str s.Resilience.stage);
      ("attempts", Json.Int s.Resilience.attempts);
      ("retries", Json.Int s.Resilience.retries);
      ("backoff_ms", Json.Int s.Resilience.backoff_ms);
      ("timed_out", Json.Bool s.Resilience.timed_out);
    ]

let case_to_json c =
  Json.Obj
    [
      ("seed", Json.Str (Int64.to_string c.seed));
      ("workload", Json.Str c.workload);
      ("plan", Chaos.plan_to_json c.plan);
      ("reference", Oracle.observation_to_json c.reference);
      ("subject", Oracle.observation_to_json c.subject);
      ("pass", Json.Bool (Oracle.ok c.verdict));
      ("violations", Json.List (List.map (fun v -> Json.Str v) c.verdict.Oracle.violations));
      ("fired", Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) c.fired));
      ("retries", Json.List (List.map stage_stats_to_json c.retries));
    ]

let report_to_json r =
  let failed =
    List.length (List.filter (fun c -> not (Oracle.ok c.verdict)) r.cases)
  in
  let total_retries =
    List.fold_left
      (fun acc c ->
        acc + List.fold_left (fun a (s : Resilience.stage_stats) -> a + s.Resilience.retries) 0 c.retries)
      0 r.cases
  in
  let total_backoff =
    List.fold_left
      (fun acc c ->
        acc
        + List.fold_left (fun a (s : Resilience.stage_stats) -> a + s.Resilience.backoff_ms) 0 c.retries)
      0 r.cases
  in
  Json.Obj
    [
      ("schema", Json.Str "deflection-chaos/1");
      ("base_seed", Json.Str (Int64.to_string r.base_seed));
      ("seeds", Json.Int (List.length r.cases));
      ("passed", Json.Int (List.length r.cases - failed));
      ("failed", Json.Int failed);
      ("violations", Json.Int (violations r));
      ("fault_histogram", Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) (histogram r)));
      ( "retry",
        Json.Obj
          [
            ("total_retries", Json.Int total_retries);
            ("total_backoff_ms", Json.Int total_backoff);
          ] );
      ("cases", Json.List (List.map case_to_json r.cases));
    ]
