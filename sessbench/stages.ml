(* The stage-by-stage session driver of the traced runs. It makes the same
   public calls Deflection.Session.run makes, in the same order and with
   the same seeds, and wraps each in a benchmark-side span, so one
   session's wall time splits into the layers that spent it. Chaos
   injection and the retry budget are off, as they are in the untraced
   runs. *)

module Session = Deflection.Session
module Bootstrap = Deflection.Bootstrap
module Service = Deflection.Service
module Client = Deflection.Client
module Attestation = Deflection_attestation.Attestation
module Ratls = Attestation.Ratls
module Verifier = Deflection_verifier.Verifier
module Loader = Deflection_loader.Loader
module Objfile = Deflection_isa.Objfile
module Interp = Deflection_runtime.Interp
module Layout = Deflection_enclave.Layout
module Memory = Deflection_enclave.Memory
module Manifest = Deflection_policy.Manifest
module Policy = Deflection_policy.Policy
module Telemetry = Deflection_telemetry.Telemetry
module Prng = Deflection_util.Prng
module Dh = Deflection_crypto.Dh

(* The enclave configuration a workload runs under, shared by the
   untraced Session.run calls and this driver. *)
type config = {
  manifest : Manifest.t;
  interp : Interp.config;
  cache : Verifier.Cache.t option;
}

let session_run cfg ?precompiled ~seed ~source ~inputs () =
  Session.run ~manifest:cfg.manifest ~interp:cfg.interp ?verifier_cache:cfg.cache ?precompiled
    ~seed ~source ~inputs ()

let exit_code_of_stats (s : Bootstrap.run_stats) =
  match s.Bootstrap.exit with Interp.Exited _ -> 0 | Interp.Fuel_exhausted -> 11 | _ -> 9

type result = {
  exit_code : int;
  outputs : string list;
  obj : Objfile.t option;  (** the delivered binary, when it compiled *)
  cache_hit : bool;
  instructions : int;
}

exception Stage_failed of int * string

let fail code msg = raise (Stage_failed (code, msg))

let run tr cfg ?precompiled ~seed ~source ~inputs () =
  let tm = Telemetry.create () in
  let sp name f = Spans.span tr name f in
  try
    sp "session" @@ fun () ->
    let config =
      {
        Bootstrap.default_config with
        Bootstrap.manifest = cfg.manifest;
        interp = cfg.interp;
        seed;
        verifier_cache = cfg.cache;
      }
    in
    let platform, ias =
      sp "attest.platform" @@ fun () ->
      let platform = Attestation.Platform.create ~seed:(Int64.add seed 1000L) in
      (platform, Attestation.Ias.for_platform platform)
    in
    let enclave, expected_measurement =
      sp "core.enclave_create" @@ fun () ->
      let e = Bootstrap.create ~config ~tm ~platform () in
      (e, Bootstrap.measurement e)
    in
    let attest role salt =
      let hello, kp =
        sp "attest.begin" @@ fun () ->
        Ratls.party_begin (Prng.create (Int64.add seed salt))
      in
      let reply =
        sp "attest.accept" @@ fun () ->
        let reply = Bootstrap.accept_party enclave ~role hello in
        match Attestation.Quote.deserialize (Attestation.Quote.serialize reply.Ratls.quote) with
        | Ok quote -> { reply with Ratls.quote }
        | Error e -> fail 4 e
      in
      sp "attest.complete" @@ fun () ->
      match Ratls.party_complete ~tm kp ~role ~ias ~expected_measurement reply with
      | Ok s -> s
      | Error e -> fail 4 e
    in
    let provider = attest Ratls.Code_provider 2000L in
    let obj =
      match precompiled with
      | Some o -> o
      | None -> (
        sp "compiler.build" @@ fun () ->
        match Service.build ~tm source with
        | Ok o -> o
        | Error e -> fail 3 (Format.asprintf "%a" Deflection_compiler.Frontend.pp_error e))
    in
    let sealed = sp "core.seal_binary" @@ fun () -> Service.deliver provider obj in
    let hits () =
      match cfg.cache with Some c -> (Verifier.Cache.stats c).Verifier.Cache.hits | None -> 0
    in
    let h0 = hits () in
    (match sp "core.receive_binary" @@ fun () -> Bootstrap.ecall_receive_binary enclave sealed with
    | Ok _ -> ()
    | Error (Bootstrap.Verifier_rejection r) ->
      fail 2 (Format.asprintf "%a" Verifier.pp_rejection r)
    | Error e -> fail 6 (Bootstrap.ecall_error_to_string e));
    let cache_hit = hits () > h0 in
    let owner = attest Ratls.Data_owner 3000L in
    sp "core.upload" (fun () ->
        List.iter
          (fun chunk ->
            match Bootstrap.ecall_receive_userdata enclave (Client.seal_data owner chunk) with
            | Ok () -> ()
            | Error e -> fail 7 (Bootstrap.ecall_error_to_string e))
          inputs);
    let stats =
      sp "runtime.execute" @@ fun () ->
      match Bootstrap.run enclave with Ok s -> s | Error e -> fail 5 (Bootstrap.ecall_error_to_string e)
    in
    let outputs =
      sp "core.decrypt" @@ fun () ->
      match Client.open_outputs owner stats.Bootstrap.sealed_outputs with
      | Ok l -> List.map Bytes.to_string l
      | Error e -> fail 8 e
    in
    sp "core.telemetry" (fun () -> ignore (Telemetry.snapshot tm));
    {
      exit_code = exit_code_of_stats stats;
      outputs;
      obj = Some obj;
      cache_hit;
      instructions = stats.Bootstrap.instructions;
    }
  with Stage_failed (code, _) ->
    { exit_code = code; outputs = []; obj = precompiled; cache_hit = false; instructions = 0 }

(* Layer calls the delivery ECall makes internally, timed on the same
   binary outside it (fresh channel, fresh memory image, no cache):
   unseal, cache key, parse, load, verify, rewrite. Not part of any
   session's wall time. *)
type inner = {
  unseal : float;
  cache_key : float;
  parse : float;
  load : float;
  verify : float;
  rewrite : float;
  checked : int;
}

let inner cfg obj =
  let bytes = Objfile.serialize obj in
  let key = Bytes.make 32 'k' in
  let sealed = Deflection_crypto.Channel.seal (Deflection_crypto.Channel.create ~key) bytes in
  let rx = Deflection_crypto.Channel.create ~key in
  let _, unseal = Bu.time (fun () -> Deflection_crypto.Channel.open_ rx sealed) in
  let _, cache_key =
    Bu.time (fun () ->
        Verifier.Cache.key ~mode:Verifier.Descent ~policies:Policy.Set.p1_p6
          ~ssa_q:obj.Objfile.ssa_q ~serialized:bytes)
  in
  let obj, parse =
    Bu.time (fun () ->
        match Objfile.deserialize bytes with Ok o -> o | Error e -> failwith ("parse: " ^ e))
  in
  let mem = Memory.create (Layout.make Bootstrap.default_config.Bootstrap.layout) in
  let loaded, load =
    Bu.time (fun () ->
        match Loader.load mem ~aex_threshold:cfg.manifest.Manifest.aex_threshold obj with
        | Ok l -> l
        | Error e -> failwith ("load: " ^ Loader.error_to_string e))
  in
  let verdict, verify =
    Bu.time (fun () ->
        Verifier.verify_mode ~mode:Verifier.Descent ~policies:Policy.Set.p1_p6
          ~ssa_q:obj.Objfile.ssa_q obj)
  in
  let checked, rewrite =
    match verdict with
    | Error _ -> (0, 0.0)
    | Ok (report, _) ->
      let _, dt =
        Bu.time (fun () -> Loader.rewrite_imms mem loaded ~policies:Policy.Set.p1_p6)
      in
      (report.Verifier.instructions_checked, dt)
  in
  { unseal; cache_key; parse; load; verify; rewrite; checked }

(* One Diffie-Hellman key generation and agreement on the default group. *)
let dh_sample seed =
  let rng = Prng.create seed in
  let a, tg = Bu.time (fun () -> Dh.generate rng) in
  let b = Dh.generate rng in
  let _, ts = Bu.time (fun () -> Dh.shared_secret a b.Dh.public) in
  (tg, ts)
