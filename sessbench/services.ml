(* Every input the benchmark feeds the program, each with an independent
   reference for its outcome. The references are computed here, in
   OCaml, or read from committed digests; none comes from the program
   under test. *)

module Prng = Deflection_util.Prng
module Policy = Deflection_policy.Policy
module W = Deflection_workloads

(* ------------------------------------------------------------------ *)
(* cold-admit: distinct, code-heavy, run-light services *)

type fn =
  | Affine of { a : int; b : int; m : int }
  | Loop of { c : int; a : int }
  | Branch of { c : int; a : int; b : int }
  | Local of { a : int; b : int; m : int }
  | Chain of { j : int; a : int; b : int }

(* Every function opens with a guarded block of stores its non-negative
   arguments never reach: code the compiler, loader and verifier must
   handle but the runtime never executes. *)
let cold_block k =
  Printf.sprintf
    "if (x < 0) { g[%d] = x * %d - %d; return 0; }" (k mod 8) (k + 3) (k + 5)

let fn_body k = function
  | Affine { a; b; m } -> Printf.sprintf "int t = x * %d + %d; g[%d] = t; return t %% %d;" a b (k mod 8) m
  | Loop { c; a } ->
    Printf.sprintf "int s = 0; for (int i = 0; i < %d; i = i + 1) { s = s + x * i + %d; } return s;" c a
  | Branch { c; a; b } -> Printf.sprintf "if (x > %d) { return x - %d + %d; } return x * %d;" c c a b
  | Local { a; b; m } ->
    Printf.sprintf
      "int t[4]; t[0] = x; t[1] = x + %d; t[2] = t[1] * %d; t[3] = t[2] - x; return t[3] %% %d + t[0];"
      a b m
  | Chain { j; a; b } -> Printf.sprintf "return f%d(x + %d) + %d;" j a b

let fn_source k f = Printf.sprintf "int f%d(int x) { %s %s }" k (cold_block k) (fn_body k f)

(* The same functions, evaluated in OCaml. All values stay small and
   non-negative, so C and OCaml division agree. *)
let rec eval fns k x =
  match fns.(k) with
  | Affine { a; b; m } -> ((x * a) + b) mod m
  | Loop { c; a } ->
    let s = ref 0 in
    for i = 0 to c - 1 do
      s := !s + (x * i) + a
    done;
    !s
  | Branch { c; a; b } -> if x > c then x - c + a else x * b
  | Local { a; b; m } -> ((((x + a) * b) - x) mod m) + x
  | Chain { j; a; b } -> eval fns j (x + a) + b

type cold = { c_source : string; c_input : bytes; c_expected : string }

(* Each block of five sessions delivers one service of each size, in a
   seeded order, so every run compiles and verifies the same size mix
   whatever its length. *)
let cold_sizes = [| 24; 34; 44; 54; 64 |]
let cold_block = Array.length cold_sizes

let cold_service ~seed ~index =
  let order = Array.copy cold_sizes in
  Prng.shuffle
    (Prng.create (Prng.derive seed ~label:(Printf.sprintf "sizes-%d" (index / cold_block))))
    order;
  let nfun = order.(index mod cold_block) in
  let rng = Prng.create (Prng.derive seed ~label:(Printf.sprintf "cold-%d" index)) in
  let r lo hi = lo + Prng.int rng (hi - lo + 1) in
  (* every group of five functions uses each template once, so code size
     per function varies little: 64 functions stay inside the 64 KiB
     code region of the default (small) enclave layout *)
  let kinds = [| 0; 1; 2; 3; 4 |] in
  Prng.shuffle rng kinds;
  let fns =
    Array.init nfun (fun k ->
        match kinds.(k mod 5) with
        | 0 -> Affine { a = r 2 9; b = r 0 99; m = r 50 997 }
        | 1 -> Loop { c = r 2 6; a = r 0 9 }
        | 2 -> Branch { c = r 10 60; a = r 0 9; b = r 2 5 }
        | 3 -> Local { a = r 1 9; b = r 2 7; m = r 50 997 }
        | _ when k = 0 -> Affine { a = r 2 9; b = r 0 99; m = r 50 997 }
        | _ -> Chain { j = Prng.int rng k; a = r 1 9; b = r 0 9 })
  in
  let args = Array.init nfun (fun _ -> r 1 100) in
  let input = Bytes.init 16 (fun _ -> Char.chr (Prng.int rng 256)) in
  let b = Buffer.create 4096 in
  Buffer.add_string b "int g[8];\nint buf[16];\n";
  Array.iteri (fun k f -> Buffer.add_string b (fn_source k f ^ "\n")) fns;
  Buffer.add_string b "int main() {\n  int n = recv(buf, 16);\n";
  (* the index makes every binary of a run distinct *)
  Buffer.add_string b (Printf.sprintf "  int s = %d;\n" index);
  Buffer.add_string b
    "  for (int i = 0; i < n; i = i + 1) { s = s + buf[i] * (i + 1); }\n";
  Array.iteri (fun k v -> Buffer.add_string b (Printf.sprintf "  s = s + f%d(%d);\n" k v)) args;
  Buffer.add_string b "  print_int(s);\n  return 0;\n}\n";
  let expected = ref index in
  Bytes.iteri (fun i c -> expected := !expected + (Char.code c * (i + 1))) input;
  Array.iteri (fun k v -> expected := !expected + eval fns k v) args;
  { c_source = Buffer.contents b; c_input = input; c_expected = string_of_int !expected }

(* ------------------------------------------------------------------ *)
(* exec-heavy: compute-bound services in the 100-300 ms class *)

type exec_kind = Nbench of string | Genome of int

let exec_catalog =
  [ Nbench "FOURIER"; Nbench "IDEA"; Nbench "NUMERIC SORT"; Nbench "STRING SORT"; Genome 200 ]

let exec_name = function Nbench n -> n | Genome n -> Printf.sprintf "GENOME n=%d" n

let exec_source = function
  | Nbench n -> (
    match W.Nbench.find n with
    | Some b -> b.W.Nbench.source
    | None -> failwith ("unknown nBench kernel " ^ n))
  | Genome n -> W.Genome.alignment_source ~n

(* The committed golden digests the tier benchmark also checks against:
   SHA-256 over the kernel's output records joined by newlines. *)
let golden_path = Filename.concat (Filename.concat "bench" "golden") "nbench.sha256"

let read_golden () =
  let ic =
    try open_in golden_path
    with Sys_error e -> failwith ("cannot read golden digests: " ^ e)
  in
  let rec go acc =
    match input_line ic with
    | line -> (
      let line = String.trim line in
      match String.rindex_opt line ' ' with
      | Some i ->
        go ((String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1)) :: acc)
      | None -> go acc)
    | exception End_of_file ->
      close_in ic;
      acc
  in
  go []

type exec_reference = Digest of string | Score of int

(* A session's inputs and reference: kernels take no input; an alignment
   gets a fresh two-sequence FASTA payload. *)
let exec_inputs ~golden ~seed ~index kind =
  match kind with
  | Nbench n -> (
    match List.assoc_opt n golden with
    | Some hex -> ([], Digest hex)
    | None -> failwith ("no golden digest for " ^ n))
  | Genome n ->
    let payload =
      W.Genome.fasta_input ~seed:(Prng.derive seed ~label:(Printf.sprintf "fasta-%d" index)) ~n
    in
    ( [ Bytes.sub payload 0 n; Bytes.sub payload n n ],
      Score (W.Genome.expected_alignment_score payload ~n) )

let exec_check reference outputs =
  match reference with
  | Digest hex ->
    let d =
      Deflection_crypto.Sha256.hex_digest_string (String.concat "\n" outputs)
    in
    if d = hex then Ok () else Error (Printf.sprintf "digest %s, expected %s" d hex)
  | Score s ->
    if outputs = [ string_of_int s ] then Ok ()
    else Error (Printf.sprintf "score %s, expected %d" (String.concat "," outputs) s)

(* Balanced order: each block of |catalog| sessions runs every service
   once, in a seeded order, so the service mix is the same for every seed
   and run length. *)
let exec_order ~seed ~index =
  let a = Array.of_list exec_catalog in
  let n = Array.length a in
  Prng.shuffle (Prng.create (Prng.derive seed ~label:(Printf.sprintf "exec-%d" (index / n)))) a;
  a.(index mod n)

(* ------------------------------------------------------------------ *)
(* tenant-serve: a small catalog every tenant reuses *)

type tenant_service = {
  t_name : string;
  t_source : string;
  t_compile : Policy.Set.t option;  (** [Some] = annotated for a weaker set *)
  t_inputs : Prng.t -> bytes list;
  t_exit : int;  (** expected exit on an uncapped tenant *)
}

let sum_source =
  "int buf[32];\n\
   int main() { int n = recv(buf, 32); int s = 0;\n\
  \  for (int i = 0; i < n; i = i + 1) { s = s + buf[i]; } print_int(s); return 0; }"

let p1_p4 = Policy.Set.of_list Policy.[ P1; P2; P3; P4 ]
let some_bytes n rng = [ Prng.bytes rng n ]

let tenant_catalog =
  [
    { t_name = "sum"; t_source = sum_source; t_compile = None; t_inputs = some_bytes 32; t_exit = 0 };
    {
      t_name = "square";
      t_source =
        "int acc;\nint square(int x) { return x * x; }\n\
         int main() { int buf[16]; int n = recv(buf, 16); acc = 0;\n\
        \  for (int i = 0; i < n; i = i + 1) { acc = acc + square(buf[i]); }\n\
        \  print_int(acc); return 0; }";
      t_compile = None;
      t_inputs = some_bytes 16;
      t_exit = 0;
    };
    {
      t_name = "dispatch";
      t_source =
        "fnptr ops[3];\nint double_(int x) { return x * 2; }\n\
         int square_(int x) { return x * x; }\nint negate_(int x) { return -x; }\n\
         int main() { ops[0] = &double_; ops[1] = &square_; ops[2] = &negate_; int acc = 3;\n\
        \  for (int i = 0; i < 6; i = i + 1) { fnptr f = ops[i % 3]; acc = f(acc); }\n\
        \  print_int(acc); return 0; }";
      t_compile = None;
      t_inputs = (fun _ -> []);
      t_exit = 0;
    };
    {
      t_name = "primes";
      t_source =
        "int sieve[512];\n\
         int main() { int n = 500; for (int i = 0; i < n; i = i + 1) { sieve[i] = 1; }\n\
        \  for (int p = 2; p * p < n; p = p + 1) { if (sieve[p]) {\n\
        \    for (int m = p * p; m < n; m = m + p) { sieve[m] = 0; } } }\n\
        \  int c = 0; for (int j = 2; j < n; j = j + 1) { c = c + sieve[j]; }\n\
        \  print_int(c); return 0; }";
      t_compile = None;
      t_inputs = (fun _ -> []);
      t_exit = 0;
    };
    (* annotated for P1-P4 only: the server's P1-P6 verifier refuses it *)
    { t_name = "weak"; t_source = sum_source; t_compile = Some p1_p4; t_inputs = some_bytes 8; t_exit = 2 };
    {
      t_name = "abort";
      t_source = "int buf[4];\nint main() { buf[2000000] = 7; return 0; }";
      t_compile = None;
      t_inputs = (fun _ -> []);
      t_exit = 9;
    };
  ]

(* Traffic shares per block of 10 requests: 8 compliant (2 each of the
   four compliant services), 1 policy-violating, 1 aborting. *)
let tenant_block =
  [| "sum"; "sum"; "square"; "square"; "dispatch"; "dispatch"; "primes"; "primes"; "weak"; "abort" |]

let tenant_service name = List.find (fun s -> s.t_name = name) tenant_catalog

(* The expected-exit table: a fuel-capped tenant's admitted code runs out
   of fuel (11) unless the verifier refused it first (2). *)
let expected_exit ~fuel_capped s = if fuel_capped && s.t_exit <> 2 then 11 else s.t_exit
