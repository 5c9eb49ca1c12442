type direction = Higher_better | Lower_better

type metric = {
  m_name : string;
  m_path : string list;
  m_direction : direction;
  m_tolerance_pct : float;
}

(* Tolerances are deliberately generous: CI runners and laptops differ by
   tens of percent run to run, and the gate exists to catch structural
   regressions (a 2x slowdown from an accidentally quadratic pass), not
   scheduler noise. Tighten per metric as history accumulates. *)
let tracked =
  [
    {
      m_name = "gateway.warm_over_cold_x";
      m_path = [ "sections"; "gateway"; "warm_over_cold_x" ];
      m_direction = Higher_better;
      m_tolerance_pct = 30.0;
    };
    {
      m_name = "gateway.cold_sessions_per_s";
      m_path = [ "sections"; "gateway"; "cold_sessions_per_s" ];
      m_direction = Higher_better;
      m_tolerance_pct = 40.0;
    };
    {
      m_name = "server.saturation_sessions_per_s";
      m_path = [ "sections"; "server"; "saturation_sessions_per_s" ];
      m_direction = Higher_better;
      m_tolerance_pct = 40.0;
    };
    {
      (* deterministic (not wall-clock): a restarted bench server replays
         its workload entirely from the recovered sealed cache, so any
         dip below 1.0 means recovery silently lost entries *)
      m_name = "server.warm_hit_ratio_after_restart";
      m_path = [ "sections"; "server"; "warm_hit_ratio_after_restart" ];
      m_direction = Higher_better;
      m_tolerance_pct = 5.0;
    };
    {
      m_name = "fuzz.verify_instr_per_sec";
      m_path = [ "sections"; "fuzz"; "verify_instr_per_sec" ];
      m_direction = Higher_better;
      m_tolerance_pct = 40.0;
    };
    {
      m_name = "table2.instr_per_sec";
      m_path = [ "sections"; "table2"; "instr_per_sec" ];
      m_direction = Higher_better;
      m_tolerance_pct = 40.0;
    };
    {
      m_name = "tier.trace_instr_per_sec";
      m_path = [ "sections"; "tier"; "trace_instr_per_sec" ];
      m_direction = Higher_better;
      m_tolerance_pct = 40.0;
    };
    {
      m_name = "verifier.witness_instr_per_sec";
      m_path = [ "sections"; "witness"; "witness_instr_per_sec" ];
      m_direction = Higher_better;
      m_tolerance_pct = 40.0;
    };
    {
      m_name = "crypto.dh_ops_per_s";
      m_path = [ "sections"; "crypto"; "dh_ops_per_s" ];
      m_direction = Higher_better;
      m_tolerance_pct = 40.0;
    };
  ]

type verdict = Better | Worse | Neutral | Missing

let verdict_label = function
  | Better -> "better"
  | Worse -> "worse"
  | Neutral -> "neutral"
  | Missing -> "missing"

type comparison = {
  c_metric : metric;
  c_baseline : float option;
  c_current : float option;
  c_delta_pct : float option;
  c_verdict : verdict;
}

type report = {
  comparisons : comparison list;
  regressions : int;
  improvements : int;
  ok : bool;
}

let number_at json path =
  let rec go json = function
    | [] -> (
      match json with
      | Json.Int n -> Some (float_of_int n)
      | Json.Float f when Float.is_finite f -> Some f
      | _ -> None)
    | key :: rest -> (
      match Json.member key json with Some j -> go j rest | None -> None)
  in
  go json path

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let n = List.length sorted in
    if n mod 2 = 1 then List.nth sorted (n / 2)
    else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.0

let compare_metric ~baseline ~current m =
  let base =
    match List.filter_map (fun doc -> number_at doc m.m_path) baseline with
    | [] -> None
    | xs -> Some (median xs)
  in
  let cur = number_at current m.m_path in
  match (base, cur) with
  | Some b, Some c when Float.abs b > 0.0 ->
    let delta = (c -. b) /. Float.abs b *. 100.0 in
    (* orient so positive [signed] is always an improvement *)
    let signed = match m.m_direction with Higher_better -> delta | Lower_better -> -.delta in
    let verdict =
      if signed < -.m.m_tolerance_pct then Worse
      else if signed > m.m_tolerance_pct then Better
      else Neutral
    in
    {
      c_metric = m;
      c_baseline = Some b;
      c_current = Some c;
      c_delta_pct = Some delta;
      c_verdict = verdict;
    }
  | _ ->
    { c_metric = m; c_baseline = base; c_current = cur; c_delta_pct = None; c_verdict = Missing }

let compare_docs ~baseline ~current =
  let comparisons = List.map (compare_metric ~baseline ~current) tracked in
  let count v = List.length (List.filter (fun c -> c.c_verdict = v) comparisons) in
  let regressions = count Worse in
  { comparisons; regressions; improvements = count Better; ok = regressions = 0 }

let opt_float = function Some f -> Json.Float f | None -> Json.Null

let report_to_json ~baseline_files ~current_file report =
  Json.Obj
    [
      ("schema", Json.Str "deflection-benchdiff/1");
      ("baseline_files", Json.List (List.map (fun f -> Json.Str f) baseline_files));
      ("baseline_runs", Json.Int (List.length baseline_files));
      ("current", Json.Str current_file);
      ( "metrics",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("name", Json.Str c.c_metric.m_name);
                   ( "direction",
                     Json.Str
                       (match c.c_metric.m_direction with
                       | Higher_better -> "higher"
                       | Lower_better -> "lower") );
                   ("tolerance_pct", Json.Float c.c_metric.m_tolerance_pct);
                   ("baseline", opt_float c.c_baseline);
                   ("current", opt_float c.c_current);
                   ("delta_pct", opt_float c.c_delta_pct);
                   ("verdict", Json.Str (verdict_label c.c_verdict));
                 ])
             report.comparisons) );
      ("regressions", Json.Int report.regressions);
      ("improvements", Json.Int report.improvements);
      ("ok", Json.Bool report.ok);
    ]
