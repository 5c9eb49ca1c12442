(* tenant-serve: an open loop of independent users against the
   multi-tenant server. Arrivals are a renewal process with Gamma-
   distributed gaps, conditioned on its count (drawn from the seed), so
   every run of a given length offers the same number of requests. A
   request's latency runs from its due time to the end of the round that
   returned it. *)

module Prng = Deflection_util.Prng
module Server = Deflection_server.Server
module Gateway = Deflection_gateway.Gateway
module Audit = Deflection_audit.Audit
module Attestation = Deflection_attestation.Attestation
module Verifier = Deflection_verifier.Verifier

(* A sixth of the server's saturated capacity with workers = 2 (41
   sessions/s on a 2-vCPU x86-64 VM). Nearer capacity the latency
   percentiles are bimodal: at 28/s, two runs of one seed gave p50 80 ms
   and 130 ms, depending on how arrivals fell into rounds. *)
let rate = 7.0

(* Shape of the gaps' Gamma distribution; 1 would be a Poisson process. A
   round of two sessions takes about twice as long as a round of one, so
   a request that arrives during a round waits about a session's time.
   The share of requests that do must stay well under a tenth, or p90
   sits where latency steps from one session's time to two and moves
   with the arrival pattern and the host's speed: Poisson arrivals at
   14/s spread p90 by 0.32-0.44 of its median over ten runs, and Gamma(4)
   gaps at 10/s by 0.30 once slow stretches made sessions 45-50 ms. With
   shape 6 at 7/s, 1% of gaps are under 45 ms and 4% under 60 ms. *)
let shape = 6

(* Latency limit for goodput, and the share of it the generator may run
   late (90th percentile) before the run is refused. *)
let limit_s = 1.0
let late_share = 0.5

let tenants =
  List.map
    (fun (n, fuel) -> { Server.t_name = n; t_quota = { Server.default_quota with Server.fuel } })
    [ ("t0", None); ("t1", None); ("t2", None); ("t3", Some 5) ]

let fuel_capped tenant = tenant = "t3"

type req = {
  id : int;
  due : float;  (** seconds after the loop starts *)
  tenant : string;
  svc : Services.tenant_service;
  job : Gateway.job;
  expected : int;
}

let make_req ~seed ~phase ~id ~due =
  let block = id / 10 and slot = id mod 10 in
  let svcs = Array.copy Services.tenant_block in
  Prng.shuffle (Prng.create (Prng.derive seed ~label:(Printf.sprintf "mix-%s%d" phase block))) svcs;
  let ts = Array.of_list tenants in
  Prng.shuffle (Prng.create (Prng.derive seed ~label:(Printf.sprintf "ten-%s%d" phase (id / 4)))) ts;
  let tenant = ts.(id mod 4).Server.t_name in
  let svc = Services.tenant_service svcs.(slot) in
  let rng = Prng.create (Prng.derive seed ~label:(Printf.sprintf "req-%s%d" phase id)) in
  let job =
    Gateway.job ?compile_policies:svc.Services.t_compile ~inputs:(svc.Services.t_inputs rng)
      ~seed:(Prng.next_int64 rng)
      ~label:(Printf.sprintf "%s-%s%d-%s" tenant phase id svc.Services.t_name)
      svc.Services.t_source
  in
  {
    id;
    due;
    tenant;
    svc;
    job;
    expected =
      Oracle.reference ~index:id ~perturb:(fun c -> c + 1)
        (Services.expected_exit ~fuel_capped:(fuel_capped tenant) svc);
  }

(* n due times: n + 1 Gamma(shape) gaps scaled to fill the window, the
   count-conditioned renewal process (shape 1 gives sorted uniform times). *)
let arrivals ~seed ~phase ~seconds =
  let n = int_of_float (Float.round (rate *. seconds)) in
  let rng = Prng.create (Prng.derive seed ~label:("arrivals-" ^ phase)) in
  let gap () =
    let g = ref 0.0 in
    for _ = 1 to shape do
      g := !g -. log (1.0 -. Prng.float rng 1.0)
    done;
    !g
  in
  let gaps = Array.init (n + 1) (fun _ -> gap ()) in
  let scale = seconds /. Array.fold_left ( +. ) 0.0 gaps in
  let t = ref 0.0 in
  let dues =
    Array.init n (fun i ->
        t := !t +. gaps.(i);
        !t *. scale)
  in
  Array.mapi (fun id due -> make_req ~seed ~phase ~id ~due) dues

type state = {
  server : Server.t;
  seed : int64;
  dir : string;
  mutable admitted : int;  (** sessions the server returned, warm-up included *)
}

let config ~seed ~dir =
  {
    Server.default_config with
    Server.tenants;
    workers = 2;
    seed;
    state_dir = Some dir;
    persist_every = 1;
  }

let collect st seen =
  let all = Server.results st.server in
  let rec drop k l = if k = 0 then l else match l with [] -> [] | _ :: t -> drop (k - 1) t in
  let fresh = drop !seen all in
  seen := List.length all;
  st.admitted <- !seen;
  fresh

(* Set-up: a server with sealed persistence in a fresh state directory,
   warmed by one request per catalog service per tenant, so verdict
   caches hold every binary the timed loop delivers. *)
let setup ~seed ~dir =
  Bu.rm_rf dir;
  Bu.mkdir_p dir;
  let server = Server.create (config ~seed ~dir) in
  let st = { server; seed; dir; admitted = 0 } in
  let expected = Hashtbl.create 32 in
  List.iter
    (fun (tc : Server.tenant_config) ->
      List.iter
        (fun svc ->
          let label = Printf.sprintf "%s-warm-%s" tc.Server.t_name svc.Services.t_name in
          Hashtbl.replace expected label
            (Services.expected_exit ~fuel_capped:(fuel_capped tc.Server.t_name) svc);
          match
            Server.offer server ~tenant:tc.Server.t_name
              (Gateway.job ?compile_policies:svc.Services.t_compile
                 ~inputs:(svc.Services.t_inputs (Prng.create 1L)) ~seed:(Prng.derive seed ~label) ~label
                 svc.Services.t_source)
          with
          | `Queued -> ()
          | `Rejected _ -> failwith "tenant-serve warm-up: offer refused")
        Services.tenant_catalog)
    tenants;
  let seen = ref 0 in
  while !seen < Hashtbl.length expected do
    ignore (Server.run_round server);
    List.iter
      (fun (label, code) ->
        if Hashtbl.find expected label <> code then
          failwith (Printf.sprintf "tenant-serve warm-up: %s exit %d" label code))
      (collect st seen)
  done;
  st

type run = {
  latencies : float list;  (** seconds, correct sessions *)
  window : float;
  oracle : Oracle.t;
  late : float list;  (** offer time minus due time *)
  waits : float list;  (** admitting round start minus due time *)
  rounds : float list;
  fill : float list;  (** sessions per round *)
  offers : float list;
  shed : int;
  gc_minor : float;
  gc_major : int;
}

let sp tr name f = match tr with Some t -> Spans.span t name f | None -> f ()

let open_loop ?tr st ~phase ~seconds =
  let reqs = arrivals ~seed:st.seed ~phase ~seconds in
  let n = Array.length reqs in
  let oracle = Oracle.create "tenant-serve" in
  let inflight : (string, req) Hashtbl.t = Hashtbl.create 128 in
  let seen = ref (List.length (Server.results st.server)) in
  let lat = ref [] and late = ref [] and waits = ref [] in
  let rounds = ref [] and fill = ref [] and offers = ref [] and shed = ref 0 in
  let g0 = Gc.quick_stat () in
  let t0 = Bu.now () in
  let last = ref t0 in
  let i = ref 0 in
  while !i < n || Hashtbl.length inflight > 0 do
    while !i < n && t0 +. reqs.(!i).due <= Bu.now () do
      let r = reqs.(!i) in
      Oracle.attempt oracle;
      let o0 = Bu.now () in
      let verdict = sp tr "server.offer" (fun () -> Server.offer st.server ~tenant:r.tenant r.job) in
      let o1 = Bu.now () in
      offers := (o1 -. o0) :: !offers;
      late := (o0 -. t0 -. r.due) :: !late;
      (match verdict with
      | `Queued -> Hashtbl.replace inflight r.job.Gateway.label r
      | `Rejected _ ->
        incr shed;
        Oracle.record_failed oracle ~index:r.id);
      incr i
    done;
    if Hashtbl.length inflight > 0 then begin
      let r0 = Bu.now () in
      (match sp tr "server.run_round" (fun () -> Server.run_round st.server) with
      | `Ok -> ()
      | `Killed -> failwith "tenant-serve: server killed");
      let r1 = Bu.now () in
      last := r1;
      rounds := (r1 -. r0) :: !rounds;
      let fresh = collect st seen in
      fill := float_of_int (List.length fresh) :: !fill;
      List.iter
        (fun (label, code) ->
          match Hashtbl.find_opt inflight label with
          | None ->
            raise (Oracle.Mismatch (Printf.sprintf "tenant-serve: unexpected result %s" label))
          | Some r -> (
            Hashtbl.remove inflight label;
            match !Oracle.fault with
            | Oracle.Drop_session k when k = r.id -> ()
            | _ ->
              waits := (r0 -. t0 -. r.due) :: !waits;
              if Oracle.timed_out code then Oracle.record_failed oracle ~index:r.id
              else begin
                Oracle.record oracle ~index:r.id
                  (if code = r.expected then Ok ()
                   else Error (Printf.sprintf "%s: exit %d, expected %d" label code r.expected));
                lat := (r1 -. t0 -. r.due) :: !lat
              end))
        fresh
    end
    else if !i < n then Bu.sleep_until (t0 +. reqs.(!i).due)
  done;
  let g1 = Gc.quick_stat () in
  Oracle.finish oracle;
  {
    latencies = !lat;
    window = !last -. t0;
    oracle;
    late = !late;
    waits = !waits;
    rounds = !rounds;
    fill = !fill;
    offers = !offers;
    shed = !shed;
    gc_minor = g1.Gc.minor_words -. g0.Gc.minor_words;
    gc_major = g1.Gc.major_collections - g0.Gc.major_collections;
  }

(* Seal the audit log and check it: the chain must verify under the
   server's platform and hold one record per admitted session. *)
let audit ?tr st =
  let doc, dt = Bu.time (fun () -> sp tr "server.audit_doc" (fun () -> Server.audit_doc st.server)) in
  let platform = Attestation.Platform.create ~seed:st.seed in
  match Audit.verify ~platform doc with
  | Error t -> raise (Oracle.Mismatch ("audit log: " ^ Audit.tamper_to_string t))
  | Ok s ->
    if s.Audit.n_records <> st.admitted then
      raise
        (Oracle.Mismatch
           (Printf.sprintf "audit log holds %d records for %d admitted sessions" s.Audit.n_records
              st.admitted));
    (s.Audit.n_records, dt)

(* Saturated throughput: the queue is kept two batches deep. *)
let capacity st ~seconds =
  let t0 = Bu.now () in
  let seen = ref (List.length (Server.results st.server)) in
  let done_ = ref 0 and id = ref 0 and queued = ref 0 in
  while Bu.now () -. t0 < seconds do
    while !queued - !done_ < 16 do
      let r = make_req ~seed:st.seed ~phase:"c" ~id:!id ~due:0.0 in
      ignore (Server.offer st.server ~tenant:r.tenant r.job);
      incr id;
      incr queued
    done;
    ignore (Server.run_round st.server);
    done_ := !done_ + List.length (collect st seen)
  done;
  float_of_int !done_ /. (Bu.now () -. t0)

(* The in-session split: warm sessions of each catalog binary through the
   stage driver, precompiled and admitted from a warmed verdict cache as
   the server admits them. *)
let split ~seed ~reps =
  let cfg =
    {
      Stages.manifest = Deflection_policy.Manifest.default;
      interp = Deflection_runtime.Interp.default_config;
      cache = Some (Verifier.Cache.create ());
    }
  in
  let acc = Layers.create () in
  let index = ref 0 in
  for rep = 0 to reps do
    List.iter
      (fun svc ->
        let pols = Option.value ~default:Deflection_policy.Policy.Set.p1_p6 svc.Services.t_compile in
        let obj =
          match Deflection.Service.build ~policies:pols svc.Services.t_source with
          | Ok o -> o
          | Error _ -> failwith ("tenant-serve: catalog service does not compile: " ^ svc.Services.t_name)
        in
        let seed = Prng.derive seed ~label:(Printf.sprintf "split-%d" !index) in
        let inputs = svc.Services.t_inputs (Prng.create seed) in
        (* the first pass only warms the cache *)
        let tr = if rep = 0 then Spans.create () else acc.Layers.tr in
        Spans.set_session tr !index;
        let r = Stages.run tr cfg ~precompiled:obj ~seed ~source:svc.Services.t_source ~inputs () in
        if r.Stages.exit_code <> svc.Services.t_exit then
          raise
            (Oracle.Mismatch
               (Printf.sprintf "tenant-serve split: %s exit %d, expected %d" svc.Services.t_name
                  r.Stages.exit_code svc.Services.t_exit));
        if rep > 0 then Layers.sample acc cfg ~index:!index ~seed r;
        incr index)
      Services.tenant_catalog
  done;
  acc
