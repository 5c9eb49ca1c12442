(* Little-endian limbs, base 2^26. A product of two limbs takes 52 bits, so
   a column of up to 512 of them still sums below 2^62 inside OCaml's 63-bit
   native ints: the Mersenne loop below carries once per output column. *)

let limb_bits = 26
let limb_base = 1 lsl limb_bits
let limb_mask = limb_base - 1

type t = int array (* normalized: no most-significant zero limbs *)

let zero = [||]

let normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int v =
  if v < 0 then invalid_arg "Bignum.of_int: negative";
  let rec limbs v acc = if v = 0 then List.rev acc else limbs (v lsr limb_bits) ((v land limb_mask) :: acc) in
  Array.of_list (limbs v [])

let one = of_int 1
let is_zero a = Array.length a = 0

let to_int_opt a =
  (* At most 2 full limbs plus a small third fit in a native int. *)
  if Array.length a > 3 then None
  else begin
    let v = ref 0 in
    let ok = ref true in
    for i = Array.length a - 1 downto 0 do
      if !v > (max_int - a.(i)) lsr limb_bits then ok := false
      else v := (!v lsl limb_bits) lor a.(i)
    done;
    if !ok then Some !v else None
  end

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let equal a b = compare a b = 0

let add a b =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb + 1 in
  let out = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    out.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  normalize out

let sub a b =
  if compare a b < 0 then invalid_arg "Bignum.sub: would be negative";
  let la = Array.length a and lb = Array.length b in
  let out = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      out.(i) <- d + limb_base;
      borrow := 1
    end
    else begin
      out.(i) <- d;
      borrow := 0
    end
  done;
  normalize out

let mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let out = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      for j = 0 to lb - 1 do
        let v = out.(i + j) + (a.(i) * b.(j)) + !carry in
        out.(i + j) <- v land limb_mask;
        carry := v lsr limb_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let v = out.(!k) + !carry in
        out.(!k) <- v land limb_mask;
        carry := v lsr limb_bits;
        incr k
      done
    done;
    normalize out
  end

let width v =
  let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let bit_length a =
  let n = Array.length a in
  if n = 0 then 0 else ((n - 1) * limb_bits) + width a.(n - 1)

(* the [w <= limb_bits] bits of [a] starting at bit [pos], zero past the top *)
let bits a pos w =
  let limb = pos / limb_bits and off = pos mod limb_bits in
  let get i = if i < Array.length a then a.(i) else 0 in
  ((get limb lsr off) lor (get (limb + 1) lsl (limb_bits - off))) land ((1 lsl w) - 1)

let get_bit a i = bits a i 1

let shift_left a k =
  if is_zero a || k = 0 then a
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let la = Array.length a in
    let out = Array.make (la + limbs + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bits in
      out.(i + limbs) <- out.(i + limbs) lor (v land limb_mask);
      out.(i + limbs + 1) <- out.(i + limbs + 1) lor (v lsr limb_bits)
    done;
    normalize out
  end

(* Binary long division: O(bits(a) * limbs(b)). Only non-Mersenne moduli
   reach it. *)
let divmod a b =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else begin
    let bits = bit_length a in
    let qlimbs = Array.make ((bits / limb_bits) + 1) 0 in
    let r = ref zero in
    for i = bits - 1 downto 0 do
      r := shift_left !r 1;
      if get_bit a i = 1 then r := add !r one;
      if compare !r b >= 0 then begin
        r := sub !r b;
        qlimbs.(i / limb_bits) <- qlimbs.(i / limb_bits) lor (1 lsl (i mod limb_bits))
      end
    done;
    (normalize qlimbs, !r)
  end

(* ------------------------------------------------------------------ *)
(* Arithmetic modulo a Mersenne number m = 2^k - 1.

   Residues live in n = ceil(k / 26) limbs and are kept in [0, m]: m itself
   is a second spelling of zero, canonicalized only on the way out. Since
   2^k = 1 (mod m), a product t < 2^(2k) reduces to (t mod 2^k) + (t >> k),
   and a carry past bit k wraps around to bit 0. Column sums of at most n
   52-bit limb products must stay below 2^62, which bounds n. *)

type mersenne = {
  k : int;
  n : int; (* limbs per residue *)
  q : int; (* k / limb_bits: the limb holding bit k *)
  r : int; (* k mod limb_bits: bit k's offset in that limb *)
  top_bits : int; (* significant bits of limb n-1 *)
  top_mask : int;
}

let max_mersenne_limbs = 512

(* [Some] when every limb of [m] is all ones up to its top bit *)
let mersenne m =
  let n = Array.length m in
  if n = 0 || n > max_mersenne_limbs then None
  else begin
    let top = m.(n - 1) in
    let rec full i = i >= n - 1 || (m.(i) = limb_mask && full (i + 1)) in
    if top land (top + 1) <> 0 || not (full 0) then None
    else begin
      let top_bits = width top in
      let k = ((n - 1) * limb_bits) + top_bits in
      Some { k; n; q = k / limb_bits; r = k mod limb_bits; top_bits; top_mask = top }
    end
  end

(* Add [carry] (limbs past n-1) and every bit above k back in at bit 0.
   Callers sum two values below 2^k, so what wraps is at most 1 and lands
   on a low part of at most 2^k - 2: one pass ends in [0, m]. *)
let wrap_around ms acc carry =
  let top = ms.n - 1 in
  let over = ref ((acc.(top) lsr ms.top_bits) + (carry lsl (limb_bits - ms.top_bits))) in
  acc.(top) <- acc.(top) land ms.top_mask;
  let i = ref 0 in
  while !over > 0 do
    let s = acc.(!i) + !over in
    acc.(!i) <- s land limb_mask;
    over := s lsr limb_bits;
    incr i
  done

(* acc := (t mod 2^k) + (t >> k), wrapped into [0, m]. [t] has 2n limbs and
   holds a value below 2^(2k), so t >> k fits in n limbs. *)
let fold ms t acc =
  let q = ms.q and r = ms.r in
  let carry = ref 0 in
  for i = 0 to ms.n - 1 do
    let lo = if i < q then t.(i) else t.(i) land ms.top_mask in
    let hi =
      if r = 0 then t.(q + i)
      else ((t.(q + i) lsr r) lor (t.(q + i + 1) lsl (limb_bits - r))) land limb_mask
    in
    let s = lo + hi + !carry in
    acc.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  wrap_around ms acc !carry

(* acc := x mod m for any x, in [0, m]: the sum of x's k-bit chunks *)
let reduce ms x acc =
  Array.fill acc 0 ms.n 0;
  for j = 0 to ((bit_length x + ms.k - 1) / ms.k) - 1 do
    let carry = ref 0 in
    for i = 0 to ms.n - 1 do
      let w = if i = ms.n - 1 then ms.top_bits else limb_bits in
      let s = acc.(i) + bits x ((j * ms.k) + (i * limb_bits)) w + !carry in
      acc.(i) <- s land limb_mask;
      carry := s lsr limb_bits
    done;
    wrap_around ms acc !carry
  done

(* t := a * b, accumulating each output column before one carry step *)
let mul_into n a b t =
  let carry = ref 0 in
  for c = 0 to (2 * n) - 2 do
    let s = ref !carry in
    for i = max 0 (c - n + 1) to min c (n - 1) do
      s := !s + (a.(i) * b.(c - i))
    done;
    t.(c) <- !s land limb_mask;
    carry := !s lsr limb_bits
  done;
  t.((2 * n) - 1) <- !carry

(* t := a * a: each cross product a_i * a_j (i < j) computed once, doubled *)
let sqr_into n a t =
  let carry = ref 0 in
  for c = 0 to (2 * n) - 2 do
    let s = ref 0 in
    for i = max 0 (c - n + 1) to ((c + 1) / 2) - 1 do
      s := !s + (a.(i) * a.(c - i))
    done;
    let d = if c land 1 = 0 then a.(c / 2) * a.(c / 2) else 0 in
    let s = (2 * !s) + d + !carry in
    t.(c) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  t.((2 * n) - 1) <- !carry

(* t := a * g for a single-limb g, zeroing the limbs above n *)
let mul_small_into n a g t =
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (a.(i) * g) + !carry in
    t.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  t.(n) <- !carry;
  Array.fill t (n + 1) (n - 1) 0

let canonical ms acc =
  let is_m = ref (acc.(ms.n - 1) = ms.top_mask) in
  for i = 0 to ms.n - 2 do
    if acc.(i) <> limb_mask then is_m := false
  done;
  if !is_m then zero else normalize acc

let window = 4

(* Left to right over the exponent: a base below 2^26 multiplies in as one
   scalar limb per set bit (keygen's g = 3); any other base uses a fixed
   4-bit window over a table of its first 15 powers. The loop writes only
   [acc] and [t], both allocated once per call. *)
let mod_pow_mersenne ms base exp =
  let n = ms.n in
  let acc = Array.make n 0 and t = Array.make (2 * n) 0 in
  let square () = sqr_into n acc t; fold ms t acc in
  let nbits = bit_length exp in
  reduce ms base acc;
  (match canonical ms acc with
  | [||] -> Array.fill acc 0 n 0
  | [| g |] ->
    for i = nbits - 2 downto 0 do
      square ();
      if get_bit exp i = 1 then begin
        mul_small_into n acc g t;
        fold ms t acc
      end
    done
  | _ ->
    let table = Array.make_matrix (1 lsl window) n 0 in
    Array.blit acc 0 table.(1) 0 n;
    for d = 2 to (1 lsl window) - 1 do
      mul_into n table.(d - 1) table.(1) t;
      fold ms t table.(d)
    done;
    let digits = (nbits + window - 1) / window in
    Array.blit table.(bits exp ((digits - 1) * window) window) 0 acc 0 n;
    for j = digits - 2 downto 0 do
      for _ = 1 to window do
        square ()
      done;
      let d = bits exp (j * window) window in
      if d <> 0 then begin
        mul_into n acc table.(d) t;
        fold ms t acc
      end
    done);
  canonical ms acc

let rem a b =
  match mersenne b with
  | Some ms ->
    let acc = Array.make ms.n 0 in
    reduce ms a acc;
    canonical ms acc
  | None -> snd (divmod a b)

let mod_pow base exp m =
  if equal m one then zero
  else
    match mersenne m with
    | Some ms -> if is_zero exp then one else mod_pow_mersenne ms base exp
    | None ->
      let result = ref one in
      let b = ref (snd (divmod base m)) in
      let bits = bit_length exp in
      for i = 0 to bits - 1 do
        if get_bit exp i = 1 then result := snd (divmod (mul !result !b) m);
        if i < bits - 1 then b := snd (divmod (mul !b !b) m)
      done;
      !result

let of_bytes_be data =
  let len = Bytes.length data in
  let out = Array.make (((8 * len) + limb_bits - 1) / limb_bits) 0 in
  let acc = ref 0 and nbits = ref 0 and limb = ref 0 in
  for i = len - 1 downto 0 do
    acc := !acc lor (Char.code (Bytes.get data i) lsl !nbits);
    nbits := !nbits + 8;
    if !nbits >= limb_bits then begin
      out.(!limb) <- !acc land limb_mask;
      acc := !acc lsr limb_bits;
      nbits := !nbits - limb_bits;
      incr limb
    end
  done;
  if !nbits > 0 then out.(!limb) <- !acc;
  normalize out

let to_bytes_be ?pad_to a =
  let nbytes = max 1 ((bit_length a + 7) / 8) in
  let nbytes = match pad_to with Some p -> max p nbytes | None -> nbytes in
  let out = Bytes.make nbytes '\x00' in
  (* bytes from the least significant end, refilling [acc] a limb at a time *)
  let acc = ref 0 and nbits = ref 0 and limb = ref 0 in
  for i = 0 to nbytes - 1 do
    if !nbits < 8 && !limb < Array.length a then begin
      acc := !acc lor (a.(!limb) lsl !nbits);
      nbits := !nbits + limb_bits;
      incr limb
    end;
    Bytes.set out (nbytes - 1 - i) (Char.chr (!acc land 0xff));
    acc := !acc lsr 8;
    nbits := !nbits - 8
  done;
  out

let of_hex s =
  let s = if String.length s mod 2 = 1 then "0" ^ s else s in
  of_bytes_be (Deflection_util.Hex.decode s)

let to_hex a = Deflection_util.Hex.encode (to_bytes_be a)

let random_below prng n =
  if compare n (of_int 2) < 0 then invalid_arg "Bignum.random_below: need n > 1";
  let nbytes = (bit_length n + 7) / 8 in
  let rec try_draw () =
    let candidate = of_bytes_be (Deflection_util.Prng.bytes prng nbytes) in
    let candidate = rem candidate n in
    if is_zero candidate then try_draw () else candidate
  in
  try_draw ()

let pp fmt a = Format.fprintf fmt "0x%s" (to_hex a)
