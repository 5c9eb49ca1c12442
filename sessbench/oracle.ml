(* Failure accounting against independent references. A session whose
   outcome disagrees with its reference aborts the run; a session that
   was shed or timed out counts as failed; a session that was attempted
   but never accounted for (dropped) aborts the run at [finish]. *)

exception Mismatch of string

(* Test-only faults, to show that both defects are caught. *)
type fault = No_fault | Wrong_reference of int | Drop_session of int

let fault = ref No_fault

type t = {
  what : string;
  mutable attempted : int;
  mutable correct : int;
  mutable failed : int;
  seen : (int, unit) Hashtbl.t;
}

let create what = { what; attempted = 0; correct = 0; failed = 0; seen = Hashtbl.create 512 }
let attempt o = o.attempted <- o.attempted + 1

let mismatch o fmt =
  Printf.ksprintf (fun s -> raise (Mismatch (o.what ^ ": " ^ s))) fmt

(* [reference o ~index ~perturb r] is [r], or a deliberately wrong
   reference for the session the test fault names. *)
let reference ~index ~perturb r =
  match !fault with Wrong_reference i when i = index -> perturb r | _ -> r

let account o ~index =
  if Hashtbl.mem o.seen index then mismatch o "session %d accounted twice" index;
  Hashtbl.add o.seen index ()

(* Record session [index]'s verdict: [Ok ()] correct, [Error msg] wrong. *)
let record o ~index verdict =
  match !fault with
  | Drop_session i when i = index -> ()
  | _ -> (
    account o ~index;
    match verdict with
    | Ok () -> o.correct <- o.correct + 1
    | Error msg -> mismatch o "session %d: %s" index msg)

let record_failed o ~index =
  match !fault with
  | Drop_session i when i = index -> ()
  | _ ->
    account o ~index;
    o.failed <- o.failed + 1

let finish o =
  let accounted = o.correct + o.failed in
  if accounted <> o.attempted then
    mismatch o "%d sessions attempted but %d accounted for" o.attempted accounted

(* Exit code 10 is a stage timeout: a failure to count, not a wrong answer. *)
let timed_out code = code = 10
