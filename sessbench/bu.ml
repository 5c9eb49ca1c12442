(* Clock, order statistics and JSON output shared by the workloads. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let sleep_until t =
  let d = t -. now () in
  if d > 0.0 then Unix.sleepf d

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear interpolation between closest ranks (Hyndman-Fan type 7). *)
let quantile xs q =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then nan
  else begin
    Array.sort compare a;
    let h = float_of_int (n - 1) *. q in
    let lo = int_of_float h in
    let hi = min (lo + 1) (n - 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))
  end

let median xs = quantile xs 0.5
let sum xs = List.fold_left ( +. ) 0.0 xs
let mean xs = match xs with [] -> nan | _ -> sum xs /. float_of_int (List.length xs)
let ms s = s *. 1000.0

(* Samples beyond a quantile: the tail a percentile rests on. *)
let beyond n q = n - int_of_float (Float.ceil (q *. float_of_int n))

type json =
  | F of float
  | I of int
  | S of string
  | B of bool
  | L of json list
  | O of (string * json) list

let rec json_to_string = function
  | F f ->
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
    else if Float.is_finite f then Printf.sprintf "%.17g" f
    else "null"
  | I i -> string_of_int i
  | S s -> Printf.sprintf "%S" s
  | B b -> string_of_bool b
  | L l -> "[" ^ String.concat ", " (List.map json_to_string l) ^ "]"
  | O kv ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (json_to_string v)) kv)
    ^ "}"

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

let rec du p =
  if not (Sys.file_exists p) then 0
  else if Sys.is_directory p then
    Array.fold_left (fun acc f -> acc + du (Filename.concat p f)) 0 (Sys.readdir p)
  else (Unix.stat p).Unix.st_size

let write_file path s =
  mkdir_p (Filename.dirname path);
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc
