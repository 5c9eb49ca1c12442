(* Per-layer metrics from the stage driver's spans. Times are medians of
   per-call self time; shares are summed self time over summed session
   wall time, for the sessions the traced run completed. *)

type inner_sample = { hit : bool; cached : bool; inner : Stages.inner }

type acc = {
  tr : Spans.t;
  inner : (int, inner_sample) Hashtbl.t;  (** by session *)
  mutable dh_gen : float list;
  mutable dh_shared : float list;
  mutable instructions : float list;
  mutable text_bytes : float list;
}

let create () =
  {
    tr = Spans.create ();
    inner = Hashtbl.create 256;
    dh_gen = [];
    dh_shared = [];
    instructions = [];
    text_bytes = [];
  }

(* Record the outside-the-ECall layer timings and the crypto sample for
   session [index] (neither is part of the session's wall time). *)
let sample acc cfg ~index ~seed (r : Stages.result) =
  (match r.Stages.obj with
  | Some obj ->
    Hashtbl.replace acc.inner index
      { hit = r.Stages.cache_hit; cached = cfg.Stages.cache <> None; inner = Stages.inner cfg obj };
    acc.text_bytes <- float_of_int (Bytes.length obj.Deflection_isa.Objfile.text) :: acc.text_bytes
  | None -> ());
  acc.instructions <- float_of_int r.Stages.instructions :: acc.instructions;
  let g, s = Stages.dh_sample seed in
  acc.dh_gen <- g :: acc.dh_gen;
  acc.dh_shared <- s :: acc.dh_shared

let attest_stages = [ "attest.platform"; "attest.begin"; "attest.accept"; "attest.complete" ]

let core_stages =
  [ "core.enclave_create"; "core.seal_binary"; "core.upload"; "core.decrypt"; "core.telemetry" ]

type shares = {
  wall : float;  (** summed session wall, seconds *)
  attest : float;
  compiler : float;
  isa : float;
  loader : float;
  verifier : float;
  runtime : float;
  crypto : float;
  core : float;
}

(* Split each session's delivery ECall by the same binary's unseal, cache
   key, parse, load, verify and rewrite timings taken outside it; a
   verdict-cache hit ran no verifier pass, and no cache means no key.
   What the split leaves (audit append, cache bookkeeping) counts as
   core. *)
let shares acc =
  let per = Spans.by_session acc.tr in
  let z =
    {
      wall = 0.;
      attest = 0.;
      compiler = 0.;
      isa = 0.;
      loader = 0.;
      verifier = 0.;
      runtime = 0.;
      crypto = 0.;
      core = 0.;
    }
  in
  Hashtbl.fold
    (fun session h s ->
      let get n = Option.value ~default:0.0 (Hashtbl.find_opt h n) in
      let wall =
        List.fold_left
          (fun w (sp : Spans.span) ->
            if sp.Spans.session = session && sp.Spans.name = "session" then w +. Spans.dur sp else w)
          0.0 (Spans.spans acc.tr)
      in
      let recv = get "core.receive_binary" in
      let c, p, l, v =
        match Hashtbl.find_opt acc.inner session with
        | None -> (0., 0., 0., 0.)
        | Some { hit; cached; inner = i } ->
          let v =
            (if hit then 0.0 else i.Stages.verify) +. if cached then i.Stages.cache_key else 0.0
          in
          let tot = i.Stages.unseal +. i.Stages.parse +. i.Stages.load +. i.Stages.rewrite +. v in
          let k = if tot > recv && tot > 0.0 then recv /. tot else 1.0 in
          ( k *. i.Stages.unseal,
            k *. i.Stages.parse,
            k *. (i.Stages.load +. i.Stages.rewrite),
            k *. v )
      in
      {
        wall = s.wall +. wall;
        attest = s.attest +. List.fold_left (fun a n -> a +. get n) 0.0 attest_stages;
        compiler = s.compiler +. get "compiler.build";
        isa = s.isa +. p;
        loader = s.loader +. l;
        verifier = s.verifier +. v;
        runtime = s.runtime +. get "runtime.execute";
        crypto = s.crypto +. c;
        core =
          s.core +. (recv -. c -. p -. l -. v)
          +. List.fold_left (fun a n -> a +. get n) 0.0 core_stages;
      })
    per z

let self_ms acc name =
  Bu.ms
    (Bu.median
       (List.filter_map
          (fun ((s : Spans.span), self) -> if s.Spans.name = name then Some self else None)
          (Spans.self_times acc.tr)))

let zero_if_nan x = if Float.is_nan x then 0.0 else x

let metrics acc =
  let sh = shares acc in
  let share x = if sh.wall > 0.0 then x /. sh.wall else 0.0 in
  let inner = Hashtbl.fold (fun _ s l -> s :: l) acc.inner [] in
  let ims f = Bu.ms (Bu.median (List.map (fun (s : inner_sample) -> f s.inner) inner)) in
  let verify_s = Bu.sum (List.map (fun (s : inner_sample) -> s.inner.Stages.verify) inner) in
  let checked = List.fold_left (fun a (s : inner_sample) -> a + s.inner.Stages.checked) 0 inner in
  let exec_s =
    Bu.sum
      (List.filter_map
         (fun ((s : Spans.span), self) ->
           if s.Spans.name = "runtime.execute" then Some self else None)
         (Spans.self_times acc.tr))
  in
  List.map
    (fun (n, v, u) -> (n, zero_if_nan v, u))
    [
      ("crypto.dh_generate_ms", Bu.ms (Bu.median acc.dh_gen), "ms");
      ("crypto.dh_shared_ms", Bu.ms (Bu.median acc.dh_shared), "ms");
      ("crypto.unseal_ms", ims (fun i -> i.Stages.unseal), "ms");
      ("crypto.share", share sh.crypto, "ratio");
      ("attest.begin_ms", self_ms acc "attest.begin", "ms");
      ("attest.accept_ms", self_ms acc "attest.accept", "ms");
      ("attest.complete_ms", self_ms acc "attest.complete", "ms");
      ("attest.share", share sh.attest, "ratio");
      ("core.enclave_create_ms", self_ms acc "core.enclave_create", "ms");
      ("core.receive_binary_ms", self_ms acc "core.receive_binary", "ms");
      ("core.upload_ms", self_ms acc "core.upload", "ms");
      ("core.decrypt_ms", self_ms acc "core.decrypt", "ms");
      ("core.share", share sh.core, "ratio");
      ("compiler.build_ms", self_ms acc "compiler.build", "ms");
      ("compiler.text_bytes", Bu.median acc.text_bytes, "bytes");
      ("compiler.share", share sh.compiler, "ratio");
      ("isa.parse_ms", ims (fun i -> i.Stages.parse), "ms");
      ("isa.share", share sh.isa, "ratio");
      ("loader.load_ms", ims (fun i -> i.Stages.load), "ms");
      ("loader.rewrite_ms", ims (fun i -> i.Stages.rewrite), "ms");
      ("loader.share", share sh.loader, "ratio");
      ("verifier.verify_ms", ims (fun i -> i.Stages.verify), "ms");
      ("verifier.cache_key_ms", ims (fun i -> i.Stages.cache_key), "ms");
      ( "verifier.instr_per_s",
        (if verify_s > 0.0 then float_of_int checked /. verify_s else 0.0),
        "1/s" );
      ("verifier.share", share sh.verifier, "ratio");
      ("runtime.execute_ms", self_ms acc "runtime.execute", "ms");
      ("runtime.instructions", Bu.median acc.instructions, "count");
      ( "runtime.instr_per_s",
        (if exec_s > 0.0 then Bu.sum acc.instructions /. exec_s else 0.0),
        "1/s" );
      ("runtime.share", share sh.runtime, "ratio");
      ( "trace.coverage",
        share
          (sh.attest +. sh.crypto +. sh.compiler +. sh.isa +. sh.loader +. sh.verifier +. sh.runtime
         +. sh.core),
        "ratio" );
    ]
