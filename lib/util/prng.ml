type t = { mutable state : int64 }

let create seed = { state = seed }
let copy t = { state = t.state }

(* One SplitMix64 finalization round: the same bijective mixer [next_int64]
   applies, reused to hash label bytes into sub-seeds. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* FNV-1a over the label, then one mix round to spread the low entropy of
   short ASCII strings across all 64 bits. *)
let label_hash label =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    label;
  mix64 !h

let derive seed ~label = mix64 (Int64.add (Int64.mul seed 0x9E3779B97F4A7C15L) (label_hash label))

(* SplitMix64 (Steele, Lea, Flood 2014). *)
let next_int64 t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  assert (bound > 0);
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  v mod bound

let float t x =
  let v = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  x *. v /. 9007199254740992.0 (* 2^53 *)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let bytes t n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set b i (Char.chr (int t 256))
  done;
  b

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let split t ~label = create (derive (next_int64 t) ~label)
