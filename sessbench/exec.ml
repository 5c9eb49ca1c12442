(* exec-heavy: compute-bound services compiled once in set-up, delivered
   precompiled and admitted from a pre-warmed verdict cache, so the
   session's time goes to execution. *)

module Prng = Deflection_util.Prng
module Verifier = Deflection_verifier.Verifier
module Objfile = Deflection_isa.Objfile

type state = {
  cfg : Stages.config;
  seed : int64;
  golden : (string * string) list;
  compiled : (Services.exec_kind * Objfile.t) list;
  compile_s : float list;  (** per catalog entry, set-up *)
}

(* The settings the committed nBench digests were produced under: a
   benign platform interrupting every ~2M cycles, and an AEX budget large
   enough for long kernels. *)
let config () =
  {
    Stages.manifest =
      { Deflection_policy.Manifest.default with Deflection_policy.Manifest.aex_threshold = 10_000_000 };
    interp =
      {
        Deflection_runtime.Interp.default_config with
        Deflection_runtime.Interp.aex_interval = Some 2_000_000;
        colocated_prob = 1.0;
      };
    cache = Some (Verifier.Cache.create ~capacity:64 ());
  }

let setup ~seed =
  let golden = Services.read_golden () in
  let cfg = config () in
  let cache = Option.get cfg.Stages.cache in
  let compiled, compile_s =
    List.split
      (List.map
         (fun kind ->
           let obj, dt =
             Bu.time (fun () ->
                 match Deflection.Session.compile_only (Services.exec_source kind) with
                 | Ok o -> o
                 | Error e -> failwith (Services.exec_name kind ^ ": " ^ e))
           in
           (match
              Verifier.Cache.verify_classified cache ~policies:Deflection_policy.Policy.Set.p1_p6
                ~ssa_q:obj.Objfile.ssa_q ~serialized:(Objfile.serialize obj) obj
            with
           | Ok _ -> ()
           | Error r ->
             failwith (Format.asprintf "%s rejected: %a" (Services.exec_name kind) Verifier.pp_rejection r));
           ((kind, obj), dt))
         Services.exec_catalog)
  in
  { cfg; seed; golden; compiled; compile_s }

let make st index =
  let kind = Services.exec_order ~seed:st.seed ~index in
  let inputs, reference = Services.exec_inputs ~golden:st.golden ~seed:st.seed ~index kind in
  let reference =
    Oracle.reference ~index
      ~perturb:(function
        | Services.Digest h -> Services.Digest ("0" ^ h) | Services.Score s -> Services.Score (s + 1))
      reference
  in
  {
    Closed.index;
    seed = Prng.derive st.seed ~label:(Printf.sprintf "session-%d" index);
    source = Services.exec_source kind;
    precompiled = Some (List.assoc kind st.compiled);
    inputs;
    check =
      (fun code outs ->
        if code <> 0 then Error (Printf.sprintf "%s: exit %d" (Services.exec_name kind) code)
        else
          Result.map_error
            (fun e -> Services.exec_name kind ^ ": " ^ e)
            (Services.exec_check reference outs));
  }
