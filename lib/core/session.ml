module Policy = Deflection_policy.Policy
module Interp = Deflection_runtime.Interp
module Verifier = Deflection_verifier.Verifier
module Layout = Deflection_enclave.Layout
module Manifest = Deflection_policy.Manifest
module Attestation = Deflection_attestation.Attestation
module Ratls = Attestation.Ratls
module Frontend = Deflection_compiler.Frontend
module Telemetry = Deflection_telemetry.Telemetry
module Flight_recorder = Deflection_forensics.Flight_recorder
module Profiler = Deflection_forensics.Profiler
module Report = Deflection_forensics.Report
module Chaos = Deflection_chaos.Chaos
module Resilience = Deflection_chaos.Resilience

type error =
  | Compile_error of Frontend.error
  | Attestation_error of { role : Ratls.role; detail : string }
  | Delivery_error of Bootstrap.ecall_error
  | Verifier_rejection of Verifier.rejection
  | Upload_error of Bootstrap.ecall_error
  | Runtime_error of Bootstrap.ecall_error
  | Decrypt_error of string
  | Stage_timeout of { stage : string; detail : string }

let pp_error fmt = function
  | Compile_error e -> Format.fprintf fmt "compile error: %a" Frontend.pp_error e
  | Attestation_error { role; detail } ->
    Format.fprintf fmt "%s attestation: %s" (Ratls.role_label role) detail
  | Delivery_error e -> Bootstrap.pp_ecall_error fmt e
  | Verifier_rejection r -> Format.fprintf fmt "verifier: %a" Verifier.pp_rejection r
  | Upload_error e -> Bootstrap.pp_ecall_error fmt e
  | Runtime_error e -> Bootstrap.pp_ecall_error fmt e
  | Decrypt_error detail -> Format.fprintf fmt "%s" detail
  | Stage_timeout { stage; detail } ->
    Format.fprintf fmt "stage %s timed out: %s" stage detail

let error_to_string e = Format.asprintf "%a" pp_error e

(* Process exit codes, one per failure stage. Documented in the README
   ("Exit codes") and asserted distinct by suite_forensics. *)
let exit_code = function
  | Verifier_rejection _ -> 2
  | Compile_error _ -> 3
  | Attestation_error _ -> 4
  | Runtime_error _ -> 5
  | Delivery_error _ -> 6
  | Upload_error _ -> 7
  | Decrypt_error _ -> 8
  | Stage_timeout _ -> 10

type outcome = {
  verifier_report : Verifier.report;
  rewritten_imms : int;
  exit : Interp.exit_reason;
  cycles : int;
  instructions : int;
  aexes : int;
  ocalls : int;
  leaked_bytes : int;
  outputs : bytes list;
  telemetry : Telemetry.snapshot;
  crash : Report.crash option;
  retries : Resilience.stage_stats list;
}

let process_exit_code = function
  | Error e -> exit_code e
  | Ok o -> (
    match o.exit with
    | Interp.Exited _ -> 0
    | Interp.Fuel_exhausted -> 11
    | _ -> 9)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let empty_snapshot =
  {
    Telemetry.spans = [];
    counters = [];
    histograms = [];
    events = [];
    dropped_events = 0;
  }

(* Run one protocol stage under the retry budget. The body reports each
   attempt's outcome and stashes the most recent {e structured} error it
   saw; if the budget runs out, that stashed error is returned — a
   persistently-failing stage keeps its documented exit code — and
   [Stage_timeout] is reserved for stages that exhausted the budget
   without ever producing a structured response (e.g. every transmission
   dropped). *)
let staged resilience ~stage body =
  let last_err = ref None in
  let stash e = last_err := Some e in
  match Resilience.run resilience ~stage (fun ~attempt -> body ~attempt ~stash) with
  | Ok v -> Ok v
  | Error (Resilience.Gave_up e) -> Error e
  | Error (Resilience.Timed_out { stage; last; _ }) -> (
    match !last_err with
    | Some e -> Error e
    | None -> Error (Stage_timeout { stage; detail = last }))

let protocol (config : Bootstrap.config) ~precompiled ~chaos ~resilience ~tm ~recorder ~profiler
    ~source ~inputs =
  let seed = config.Bootstrap.seed in
  let platform = Attestation.Platform.create ~seed:(Int64.add seed 1000L) in
  let ias = Attestation.Ias.for_platform platform in
  let enclave = Bootstrap.create ~config ~tm ~platform () in
  let expected_measurement = Bootstrap.measurement enclave in
  let attest ~role prng_salt =
    Telemetry.span tm (match role with
        | Ratls.Code_provider -> "attest.provider"
        | Ratls.Data_owner -> "attest.owner")
    @@ fun () ->
    let prng = Deflection_util.Prng.create (Int64.add seed prng_salt) in
    let quote_site =
      match role with
      | Ratls.Code_provider -> Chaos.Provider_quote
      | Ratls.Data_owner -> Chaos.Owner_quote
    in
    staged resilience ~stage:(Ratls.role_label role ^ "-attest")
    @@ fun ~attempt:_ ~stash ->
    let hello, kp = Ratls.party_begin prng in
    let reply = Bootstrap.accept_party enclave ~role hello in
    (* the quote travels over the untrusted wire: give chaos its shot *)
    let quote_wire =
      Chaos.corrupt_quote chaos ~site:quote_site (Attestation.Quote.serialize reply.Ratls.quote)
    in
    match Attestation.Quote.deserialize quote_wire with
    | Error detail ->
      stash (Attestation_error { role; detail });
      Resilience.Transient detail
    | Ok quote -> (
      let reply = { reply with Ratls.quote } in
      match Ratls.party_complete ~tm kp ~role ~ias ~expected_measurement reply with
      | Ok session -> Resilience.Done session
      | Error detail ->
        stash (Attestation_error { role; detail });
        Resilience.Transient detail)
  in
  (* --- code provider: attest, compile, deliver --- *)
  let* provider_session = attest ~role:Ratls.Code_provider 2000L in
  let* obj =
    (* a gateway compiles each distinct source once and hands the shared
       objfile to every session it fans out *)
    match precompiled with
    | Some obj -> Ok obj
    | None -> (
      match
        Service.build ~policies:config.Bootstrap.policies
          ~ssa_q:config.Bootstrap.manifest.Manifest.ssa_q ~tm source
      with
      | Ok obj -> Ok obj
      | Error e -> Error (Compile_error e))
  in
  (* seal exactly once: retransmissions resend the same sealed record, so
     the channel's sequence discipline detects duplicates and replays *)
  let sealed_binary = Service.deliver provider_session obj in
  let* report, rewritten_imms =
    staged resilience ~stage:"deliver" @@ fun ~attempt:_ ~stash ->
    let delivered = Chaos.transport chaos ~site:Chaos.Deliver_binary sealed_binary in
    let rec try_records last = function
      | [] -> (
        match last with
        | Some t -> t
        | None -> Resilience.Transient "binary record dropped in transit")
      | record :: rest -> (
        match Bootstrap.ecall_receive_binary enclave record with
        | Ok v -> Resilience.Done v
        | Error (Bootstrap.Auth_failure _ as e) ->
          stash (Delivery_error e);
          try_records (Some (Resilience.Transient (Bootstrap.ecall_error_to_string e))) rest
        | Error (Bootstrap.Verifier_rejection r) -> Resilience.Fatal (Verifier_rejection r)
        | Error e -> Resilience.Fatal (Delivery_error e))
    in
    try_records None delivered
  in
  (* --- data owner: attest, upload --- *)
  let* owner_session = attest ~role:Ratls.Data_owner 3000L in
  let* () =
    Telemetry.span tm "upload" @@ fun () ->
    let upload_chunk idx chunk =
      let sealed = Client.seal_data owner_session chunk in
      staged resilience ~stage:(Printf.sprintf "upload-%d" idx) @@ fun ~attempt:_ ~stash ->
      let delivered = Chaos.transport chaos ~site:Chaos.Upload_data sealed in
      let rec go ~received last = function
        | [] ->
          if received then Resilience.Done ()
          else (
            match last with
            | Some t -> t
            | None -> Resilience.Transient "data record dropped in transit")
        | record :: rest -> (
          match Bootstrap.ecall_receive_userdata enclave record with
          | Ok () -> go ~received:true last rest
          | Error (Bootstrap.Auth_failure _ as e) ->
            (* harmless for duplicates/replays already consumed; fatal
               for the genuine record only if nothing else gets through *)
            if not received then stash (Upload_error e);
            go ~received
              (Some (Resilience.Transient (Bootstrap.ecall_error_to_string e)))
              rest
          | Error e -> Resilience.Fatal (Upload_error e))
      in
      go ~received:false None delivered
    in
    let rec upload idx = function
      | [] -> Ok ()
      | chunk :: rest ->
        let* () = upload_chunk idx chunk in
        upload (idx + 1) rest
    in
    upload 0 inputs
  in
  (* --- execute and decrypt the results --- *)
  let* stats =
    match Bootstrap.run ~recorder ~profiler ~chaos enclave with
    | Ok s -> Ok s
    | Error e -> Error (Runtime_error e)
  in
  let* outputs =
    Telemetry.span tm "decrypt" @@ fun () ->
    let expected = List.length stats.Bootstrap.sealed_outputs in
    if expected = 0 then Ok []
    else begin
      (* opened plaintexts accumulate across attempts: the rx channel's
         sequence cursor skips records opened by an earlier attempt, so
         retransmitting the full set never double-delivers *)
      let opened = ref [] in
      let count = ref 0 in
      staged resilience ~stage:"return-outputs" @@ fun ~attempt:_ ~stash ->
      List.iter
        (fun sealed ->
          if !count < expected then
            List.iter
              (fun record ->
                if !count < expected then
                  match Client.open_record owner_session record with
                  | Ok plain ->
                    opened := plain :: !opened;
                    incr count
                  | Error detail -> stash (Decrypt_error detail))
              (Chaos.transport chaos ~site:Chaos.Return_outputs sealed))
        stats.Bootstrap.sealed_outputs;
      if !count = expected then Resilience.Done (List.rev !opened)
      else Resilience.Transient "output records missing after transport"
    end
  in
  Ok
    {
      verifier_report = report;
      rewritten_imms;
      exit = stats.Bootstrap.exit;
      cycles = stats.Bootstrap.cycles;
      instructions = stats.Bootstrap.instructions;
      aexes = stats.Bootstrap.aexes;
      ocalls = stats.Bootstrap.ocalls;
      leaked_bytes = stats.Bootstrap.leaked_bytes;
      outputs;
      telemetry = empty_snapshot;
      crash = stats.Bootstrap.crash;
      retries = Resilience.stats resilience;
    }

let admit ?precompiled ?(chaos = Chaos.disabled) ?tm ?(recorder = Flight_recorder.disabled)
    ?(profiler = Profiler.disabled) (config : Bootstrap.config) ~source ~inputs =
  let tm = match tm with Some tm -> tm | None -> Telemetry.create () in
  let resilience_seed =
    match Chaos.plan chaos with Some p -> p.Chaos.seed | None -> config.Bootstrap.seed
  in
  let resilience =
    Resilience.create ~config:config.Bootstrap.resilience ~seed:resilience_seed ()
  in
  (* the snapshot is taken after the root span closes so the outcome's
     span tree includes "session" itself *)
  let result =
    Telemetry.span tm "session" (fun () ->
        protocol config ~precompiled ~chaos ~resilience ~tm ~recorder ~profiler ~source
          ~inputs)
  in
  match result with
  | Error _ as e -> e
  | Ok o -> Ok { o with telemetry = Telemetry.snapshot tm }

let defaults = Bootstrap.default_config

let run ?(policies = defaults.policies) ?(manifest = defaults.manifest)
    ?(interp = defaults.interp) ?(seed = defaults.seed) ?oram_capacity ?verifier_cache
    ?precompiled ?tm ~source ~inputs () =
  admit ?precompiled ?tm
    { defaults with policies; manifest; interp; seed; oram_capacity; verifier_cache }
    ~source ~inputs

let compile_only ?policies ?ssa_q src =
  match Frontend.compile ?policies ?ssa_q src with
  | Ok obj -> Ok obj
  | Error e -> Error (Format.asprintf "compile error: %a" Frontend.pp_error e)
