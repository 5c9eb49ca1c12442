(* cold-admit: every session attests a fresh party pair, compiles a
   distinct seeded service inside the session, and misses the shared
   bounded verdict cache, which therefore takes inserts and evictions
   but never a hit. *)

module Prng = Deflection_util.Prng
module Verifier = Deflection_verifier.Verifier

let cache_capacity = 16

type state = { cfg : Stages.config; seed : int64 }

let config () =
  {
    Stages.manifest = Deflection_policy.Manifest.default;
    interp = Deflection_runtime.Interp.default_config;
    cache = Some (Verifier.Cache.create ~capacity:cache_capacity ());
  }

let spec ~seed index =
  let c = Services.cold_service ~seed ~index in
  let expected =
    Oracle.reference ~index ~perturb:(fun s -> s ^ "1") c.Services.c_expected
  in
  {
    Closed.index;
    seed = Prng.derive seed ~label:(Printf.sprintf "session-%d" index);
    source = c.Services.c_source;
    precompiled = None;
    inputs = [ c.Services.c_input ];
    check =
      (fun code outs ->
        if code = 0 && outs = [ expected ] then Ok ()
        else
          Error
            (Printf.sprintf "exit %d output [%s], expected exit 0 output [%s]" code
               (String.concat "," outs) expected));
  }

(* Set-up: a fresh shared cache and one block of warm-up sessions, one
   of each size, so set-up does the same work under every seed; the timed
   sessions never repeat their binaries. *)
let setup ~seed =
  let cfg = config () in
  let warm = Prng.derive seed ~label:"warm-up" in
  List.iter
    (fun index ->
      let s = spec ~seed:warm index in
      match Stages.session_run cfg ~seed:s.Closed.seed ~source:s.Closed.source ~inputs:s.Closed.inputs () with
      | Ok _ -> ()
      | Error e -> failwith ("cold-admit warm-up: " ^ Deflection.Session.error_to_string e))
    (List.init Services.cold_block Fun.id);
  { cfg; seed }

let make st i = spec ~seed:st.seed i

(* The traced replay repeats the untraced run's binaries, so it gets its
   own empty cache to keep missing. *)
let fresh_config st = { st.cfg with Stages.cache = Some (Verifier.Cache.create ~capacity:cache_capacity ()) }
