(* Benchmark-side spans: recorded around calls into the program's layers,
   kept in memory, and written out when the run ends. Spans nest by a
   stack, so a span's self time is its duration minus the time its direct
   children cover. *)

type span = {
  name : string;
  sid : int;
  parent : int;  (** -1 for a root *)
  session : int;
  t0 : float;
  mutable t1 : float;
}

type t = {
  mutable rev : span list;
  mutable stack : span list;
  mutable next : int;
  mutable session : int;
  mutable delay : (string * float) option;
      (** test-only: sleep this long inside the named span, before its call *)
}

let create () = { rev = []; stack = []; next = 0; session = -1; delay = None }
let set_session t id = t.session <- id

let span t name f =
  let parent = match t.stack with s :: _ -> s.sid | [] -> -1 in
  let s = { name; sid = t.next; parent; session = t.session; t0 = Bu.now (); t1 = nan } in
  t.next <- t.next + 1;
  t.stack <- s :: t.stack;
  (match t.delay with Some (n, d) when n = name -> Unix.sleepf d | _ -> ());
  let finish () =
    s.t1 <- Bu.now ();
    t.stack <- List.tl t.stack;
    t.rev <- s :: t.rev
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let spans t = List.rev t.rev
let dur s = s.t1 -. s.t0

(* (span, self seconds) for every recorded span. *)
let self_times t =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    t.rev;
  List.rev_map (fun s -> (s, dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.sid))) t.rev

(* Per-session sums of self time, by span name. *)
let by_session t =
  let tbl : (int, (string, float) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun ((s : span), self) ->
      let h =
        match Hashtbl.find_opt tbl s.session with
        | Some h -> h
        | None ->
          let h = Hashtbl.create 16 in
          Hashtbl.add tbl s.session h;
          h
      in
      Hashtbl.replace h s.name (self +. Option.value ~default:0.0 (Hashtbl.find_opt h s.name)))
    (self_times t);
  tbl

let to_json t =
  Bu.L
    (List.map
       (fun s ->
         Bu.O
           [
             ("name", Bu.S s.name);
             ("sid", Bu.I s.sid);
             ("parent", Bu.I s.parent);
             ("session", Bu.I s.session);
             ("start_s", Bu.F s.t0);
             ("end_s", Bu.F s.t1);
           ])
       (spans t))
