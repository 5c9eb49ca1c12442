(* The closed loop of cold-admit and exec-heavy: one client, each session
   started when the previous one returned. *)

module Session = Deflection.Session

type spec = {
  index : int;
  seed : int64;
  source : string;
  precompiled : Deflection_isa.Objfile.t option;
  inputs : bytes list;
  check : int -> string list -> (unit, string) result;
      (** exit code and decrypted outputs against the reference *)
}

type run = {
  latencies : float list;  (** seconds, correct sessions *)
  window : float;
  oracle : Oracle.t;
}

let judge oracle spec code outs =
  if Oracle.timed_out code then (Oracle.record_failed oracle ~index:spec.index; false)
  else (Oracle.record oracle ~index:spec.index (spec.check code outs); true)

(* One untraced Session.run: exit code and decrypted outputs. *)
let session cfg spec =
  let r =
    Stages.session_run cfg ?precompiled:spec.precompiled ~seed:spec.seed ~source:spec.source
      ~inputs:spec.inputs ()
  in
  ( Session.process_exit_code r,
    match r with Ok o -> List.map Bytes.to_string o.Session.outputs | Error _ -> [] )

let untraced cfg ~seconds ~make =
  let oracle = Oracle.create "untraced" in
  let lat = ref [] in
  let t0 = Bu.now () in
  let t_end = t0 +. seconds in
  let i = ref 0 in
  while Bu.now () < t_end do
    let spec = make !i in
    Oracle.attempt oracle;
    let (code, outs), dt = Bu.time (fun () -> session cfg spec) in
    if judge oracle spec code outs then lat := dt :: !lat;
    incr i
  done;
  let window = Bu.now () -. t0 in
  Oracle.finish oracle;
  { latencies = !lat; window; oracle }

(* The traced run interleaves, session by session, an untraced
   Session.run and the stage driver on the same inputs, each with its own
   configuration (verdict cache included), so both see the same process
   state. The driver's outputs must equal Session.run's. *)
let traced ~untraced_cfg ~traced_cfg ~seconds ~make =
  let oracle = Oracle.create "traced" in
  let acc = Layers.create () in
  let walls = ref [] and plain = ref [] in
  let minor = ref 0.0 and major = ref 0 in
  let t_end = Bu.now () +. seconds in
  let i = ref 0 in
  while Bu.now () < t_end do
    let spec = make !i in
    Oracle.attempt oracle;
    let g0 = Gc.quick_stat () in
    let (code, outs), du = Bu.time (fun () -> session untraced_cfg spec) in
    let g1 = Gc.quick_stat () in
    minor := !minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
    major := !major + (g1.Gc.major_collections - g0.Gc.major_collections);
    Spans.set_session acc.Layers.tr spec.index;
    let r, dt =
      Bu.time (fun () ->
          Stages.run acc.Layers.tr traced_cfg ?precompiled:spec.precompiled ~seed:spec.seed
            ~source:spec.source ~inputs:spec.inputs ())
    in
    if code <> r.Stages.exit_code || outs <> r.Stages.outputs then
      raise
        (Oracle.Mismatch
           (Printf.sprintf "session %d: stage driver gave exit %d [%s], Session.run exit %d [%s]"
              spec.index r.Stages.exit_code
              (String.concat "," r.Stages.outputs)
              code (String.concat "," outs)));
    if judge oracle spec code outs then begin
      plain := du :: !plain;
      walls := dt :: !walls
    end;
    Layers.sample acc traced_cfg ~index:spec.index ~seed:spec.seed r;
    incr i
  done;
  Oracle.finish oracle;
  (acc, oracle, !walls, !plain, !minor, !major)
