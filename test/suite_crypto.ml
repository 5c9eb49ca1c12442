module C = Deflection_crypto
module Hex = Deflection_util.Hex
module Prng = Deflection_util.Prng

(* FIPS 180-4 / RFC test vectors *)
let test_sha256_vectors () =
  let cases =
    [
      ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
      ( String.make 1000000 'a',
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0" );
    ]
  in
  List.iter
    (fun (input, expect) ->
      Alcotest.(check string) "digest" expect (C.Sha256.hex_digest_string input))
    cases

let test_sha256_incremental () =
  let whole = C.Sha256.digest_string "the quick brown fox jumps over the lazy dog" in
  let ctx = C.Sha256.init () in
  C.Sha256.update_string ctx "the quick brown fox";
  C.Sha256.update_string ctx " jumps over";
  C.Sha256.update_string ctx " the lazy dog";
  Alcotest.(check bytes) "incremental = one-shot" whole (C.Sha256.finalize ctx)

(* RFC 4231 *)
let test_hmac_vectors () =
  let t2 = C.Hmac.sha256_string ~key:"Jefe" "what do ya want for nothing?" in
  Alcotest.(check string) "rfc4231 case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hex.encode t2);
  let key = Bytes.make 20 '\x0b' in
  let t1 = C.Hmac.sha256 ~key (Bytes.of_string "Hi There") in
  Alcotest.(check string) "rfc4231 case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hex.encode t1)

let test_hmac_verify () =
  let key = Bytes.of_string "k" in
  let msg = Bytes.of_string "m" in
  let tag = C.Hmac.sha256 ~key msg in
  Alcotest.(check bool) "accepts" true (C.Hmac.verify ~key msg ~tag);
  Bytes.set tag 0 (Char.chr (Char.code (Bytes.get tag 0) lxor 1));
  Alcotest.(check bool) "rejects flipped tag" false (C.Hmac.verify ~key msg ~tag)

let test_hkdf_lengths () =
  let key = Bytes.make 32 'K' in
  let a = C.Hmac.hkdf ~key ~info:"x" 16 and b = C.Hmac.hkdf ~key ~info:"x" 48 in
  Alcotest.(check int) "len 16" 16 (Bytes.length a);
  Alcotest.(check int) "len 48" 48 (Bytes.length b);
  Alcotest.(check bytes) "prefix consistent" a (Bytes.sub b 0 16);
  let c = C.Hmac.hkdf ~key ~info:"y" 16 in
  Alcotest.(check bool) "info separates" false (Bytes.equal a c)

(* RFC 8439 section 2.3.2 *)
let test_chacha20_block () =
  let key = Hex.decode "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f" in
  let nonce = Hex.decode "000000090000004a00000000" in
  let blk = C.Chacha20.block ~key ~nonce ~counter:1 in
  Alcotest.(check string) "first 16 bytes" "10f1e7e4d13b5915500fdd1fa32071c4"
    (String.sub (Hex.encode blk) 0 32)

let test_chacha20_involution () =
  let prng = Prng.create 9L in
  let key = Prng.bytes prng 32 and nonce = Prng.bytes prng 12 in
  let msg = Prng.bytes prng 300 in
  let ct = C.Chacha20.xor ~key ~nonce msg in
  Alcotest.(check bool) "ciphertext differs" false (Bytes.equal ct msg);
  Alcotest.(check bytes) "decrypts" msg (C.Chacha20.xor ~key ~nonce ct)

let test_bignum_basics () =
  let open C.Bignum in
  Alcotest.(check bool) "zero" true (is_zero zero);
  Alcotest.(check (option int)) "roundtrip small" (Some 123456789)
    (to_int_opt (of_int 123456789));
  let a = of_int 987654321 and b = of_int 123456789 in
  Alcotest.(check (option int)) "add" (Some (987654321 + 123456789)) (to_int_opt (add a b));
  Alcotest.(check (option int)) "sub" (Some (987654321 - 123456789)) (to_int_opt (sub a b));
  Alcotest.(check (option int)) "mul fits"
    (Some (987654 * 123456))
    (to_int_opt (mul (of_int 987654) (of_int 123456)))

let test_bignum_divmod_matches_int () =
  let open C.Bignum in
  let prng = Prng.create 21L in
  for _ = 1 to 200 do
    let a = 1 + Prng.int prng 1_000_000_000 in
    let b = 1 + Prng.int prng 100_000 in
    let q, r = divmod (of_int a) (of_int b) in
    Alcotest.(check (option int)) "quotient" (Some (a / b)) (to_int_opt q);
    Alcotest.(check (option int)) "remainder" (Some (a mod b)) (to_int_opt r)
  done

let test_bignum_mod_pow () =
  let open C.Bignum in
  (* 3^20 mod 1000 = 3486784401 mod 1000 = 401 *)
  Alcotest.(check (option int)) "3^20 mod 1000" (Some 401)
    (to_int_opt (mod_pow (of_int 3) (of_int 20) (of_int 1000)));
  (* Fermat: a^(p-1) = 1 mod p for prime p *)
  let p = of_int 1_000_003 in
  Alcotest.(check (option int)) "fermat" (Some 1)
    (to_int_opt (mod_pow (of_int 123456) (sub p one) p))

let test_bignum_bytes_roundtrip () =
  let open C.Bignum in
  let prng = Prng.create 33L in
  for _ = 1 to 50 do
    let raw = Prng.bytes prng (1 + Prng.int prng 40) in
    let v = of_bytes_be raw in
    Alcotest.(check int) "hex roundtrip" 0 (compare v (of_hex (to_hex v)))
  done

let test_dh_agreement () =
  let prng = Prng.create 77L in
  let g = C.Dh.test_group in
  let a = C.Dh.generate ~group:g prng and b = C.Dh.generate ~group:g prng in
  let sa = C.Dh.shared_secret ~group:g a b.C.Dh.public in
  let sb = C.Dh.shared_secret ~group:g b a.C.Dh.public in
  Alcotest.(check bytes) "shared secret agrees" sa sb;
  let c = C.Dh.generate ~group:g prng in
  let sc = C.Dh.shared_secret ~group:g c a.C.Dh.public in
  Alcotest.(check bool) "third party differs" false (Bytes.equal sa sc)

let test_channel_roundtrip () =
  let prng = Prng.create 88L in
  let key = Prng.bytes prng 32 in
  let tx = C.Channel.create ~key and rx = C.Channel.create ~key in
  List.iter
    (fun msg ->
      let m = Bytes.of_string msg in
      Alcotest.(check bytes) "roundtrip" m (C.Channel.open_ rx (C.Channel.seal tx m)))
    [ "alpha"; ""; "gamma with a longer payload ....." ]

let test_channel_tamper () =
  let key = Bytes.make 32 'T' in
  let tx = C.Channel.create ~key and rx = C.Channel.create ~key in
  let record = C.Channel.seal tx (Bytes.of_string "secret") in
  Bytes.set record 14 (Char.chr (Char.code (Bytes.get record 14) lxor 0x40));
  Alcotest.check_raises "tampered record" C.Channel.Auth_failure (fun () ->
      ignore (C.Channel.open_ rx record))

let test_channel_replay () =
  let key = Bytes.make 32 'R' in
  let tx = C.Channel.create ~key and rx = C.Channel.create ~key in
  let r1 = C.Channel.seal tx (Bytes.of_string "one") in
  ignore (C.Channel.open_ rx r1);
  Alcotest.check_raises "replayed record" C.Channel.Auth_failure (fun () ->
      ignore (C.Channel.open_ rx r1))

let test_channel_reorder_rejected () =
  let key = Bytes.make 32 'S' in
  let tx = C.Channel.create ~key and rx = C.Channel.create ~key in
  let r1 = C.Channel.seal tx (Bytes.of_string "first") in
  let r2 = C.Channel.seal tx (Bytes.of_string "second") in
  Alcotest.check_raises "out-of-order record" C.Channel.Auth_failure (fun () ->
      ignore (C.Channel.open_ rx r2));
  (* the in-order record still works afterwards *)
  Alcotest.(check bytes) "in-order ok" (Bytes.of_string "first") (C.Channel.open_ rx r1)

let test_channel_padding_uniform () =
  let key = Bytes.make 32 'P' in
  let tx = C.Channel.create ~key and rx = C.Channel.create ~key in
  let r1 = C.Channel.seal_padded tx ~pad_to:512 (Bytes.of_string "a") in
  let r2 = C.Channel.seal_padded tx ~pad_to:512 (Bytes.make 400 'x') in
  Alcotest.(check int) "equal record sizes" (Bytes.length r1) (Bytes.length r2);
  Alcotest.(check bytes) "unpads 1" (Bytes.of_string "a") (C.Channel.open_padded rx r1);
  Alcotest.(check bytes) "unpads 2" (Bytes.make 400 'x') (C.Channel.open_padded rx r2)

let test_channel_pad_overflow () =
  let key = Bytes.make 32 'O' in
  let tx = C.Channel.create ~key in
  Alcotest.check_raises "too large"
    (Invalid_argument "Channel.seal_padded: plaintext exceeds pad size") (fun () ->
      ignore (C.Channel.seal_padded tx ~pad_to:4 (Bytes.make 5 'x')))

let qcheck_bignum_addsub =
  QCheck.Test.make ~name:"bignum add/sub inverse" ~count:300
    QCheck.(pair (int_bound 1_000_000_000) (int_bound 1_000_000_000))
    (fun (a, b) ->
      let open C.Bignum in
      let hi, lo = if a >= b then (a, b) else (b, a) in
      to_int_opt (sub (add (of_int hi) (of_int lo)) (of_int lo)) = Some hi)

let qcheck_bignum_mul_distributes =
  QCheck.Test.make ~name:"bignum (a+b)*c = ac+bc" ~count:200
    QCheck.(triple (int_bound 1_000_000) (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (a, b, c) ->
      let open C.Bignum in
      let l = mul (add (of_int a) (of_int b)) (of_int c) in
      let r = add (mul (of_int a) (of_int c)) (mul (of_int b) (of_int c)) in
      compare l r = 0)

(* Test-only references for the bignum fast paths, built on the public
   [mul], [add] and [divmod] alone: textbook right-to-left square-and-
   multiply and byte-at-a-time codecs. They share no code with the
   Mersenne loop or the limb-wise codecs they check. *)
module Ref = struct
  open C.Bignum

  let byte = of_int 256
  let modulo x m = snd (divmod x m)

  let mod_pow base exp m =
    let result = ref (modulo one m) and b = ref (modulo base m) and e = ref exp in
    while not (is_zero !e) do
      let q, bit = divmod !e (of_int 2) in
      if not (is_zero bit) then result := modulo (mul !result !b) m;
      b := modulo (mul !b !b) m;
      e := q
    done;
    !result

  let of_bytes_be data =
    Bytes.fold_left (fun acc c -> add (mul acc byte) (of_int (Char.code c))) zero data

  let to_bytes_be ?(pad_to = 0) x =
    let rec digits x acc =
      if is_zero x then acc
      else
        let q, r = divmod x byte in
        digits q (Option.get (to_int_opt r) :: acc)
    in
    let ds = digits x [] in
    let n = max 1 (max pad_to (List.length ds)) in
    let ds = List.init (n - List.length ds) (fun _ -> 0) @ ds in
    Bytes.of_seq (List.to_seq (List.map Char.chr ds))

  (* uniform below 2^nbits *)
  let random_bits prng nbits =
    modulo (of_bytes_be (Prng.bytes prng ((nbits / 8) + 1))) (shift_left one nbits)
end

let pow2 k = C.Bignum.shift_left C.Bignum.one k
let mersenne k = C.Bignum.sub (pow2 k) C.Bignum.one

(* the multiples of 26 put bit k on a limb boundary of the 26-bit limbs *)
let mersenne_ks = [ 8; 13; 26; 52; 61; 104; 127; 520; 521 ]

let base_kinds = [ "0"; "1"; "m-1"; "m"; ">=m"; "<2^26"; "<2^k" ]
let exp_kinds = [ "0"; "1"; "m"; ">k bits"; "<=k bits" ]

let mersenne_case prng k ~base ~exp =
  let open C.Bignum in
  let m = mersenne k in
  let base =
    match base with
    | "0" -> zero
    | "1" -> one
    | "m-1" -> sub m one
    | "m" -> m
    | ">=m" -> add m (Ref.random_bits prng (1 + Prng.int prng (2 * k)))
    | "<2^26" -> of_int (Prng.int prng (1 lsl 26))
    | _ -> Ref.random_bits prng k
  in
  let exp =
    match exp with
    | "0" -> zero
    | "1" -> one
    | "m" -> m
    | ">k bits" ->
      let w = k + Prng.int prng 40 in
      add (pow2 w) (Ref.random_bits prng w)
    | _ -> Ref.random_bits prng (1 + Prng.int prng k)
  in
  (base, exp, m)

let qcheck_mod_pow_mersenne =
  QCheck.Test.make ~name:"bignum mod_pow = reference, Mersenne moduli" ~count:120
    QCheck.(
      quad (make ~print:string_of_int (Gen.oneofl mersenne_ks))
        (make ~print:Fun.id (Gen.oneofl base_kinds))
        (make ~print:Fun.id (Gen.oneofl exp_kinds))
        int64)
    (fun (k, base, exp, seed) ->
      let base, exp, m = mersenne_case (Prng.create seed) k ~base ~exp in
      C.Bignum.equal (C.Bignum.mod_pow base exp m) (Ref.mod_pow base exp m))

(* every base kind against every exponent kind once, at the limb-boundary
   and odd widths below the DH group (M521 is covered by the law above and
   the known-answer test) *)
let test_mod_pow_mersenne_grid () =
  let prng = Prng.create 5L in
  List.iter
    (fun k ->
      List.iter
        (fun b ->
          List.iter
            (fun e ->
              let base, exp, m = mersenne_case prng k ~base:b ~exp:e in
              Alcotest.(check string)
                (Printf.sprintf "k=%d base %s exp %s" k b e)
                (C.Bignum.to_hex (Ref.mod_pow base exp m))
                (C.Bignum.to_hex (C.Bignum.mod_pow base exp m)))
            exp_kinds)
        base_kinds)
    [ 8; 13; 26; 52; 61; 104; 127 ]

(* moduli next to Mersenne numbers (2^k + 1, 2^k - 3, a cleared bit, a
   power of two) and arbitrary ones all take the generic divmod path *)
let qcheck_mod_pow_generic =
  QCheck.Test.make ~name:"bignum mod_pow = reference, other moduli" ~count:150
    QCheck.(pair (int_range 2 140) int64)
    (fun (k, seed) ->
      let open C.Bignum in
      let prng = Prng.create seed in
      let m =
        match Prng.int prng 5 with
        | 0 -> add (pow2 k) one
        | 1 -> sub (pow2 k) (of_int 3)
        | 2 -> sub (mersenne k) (pow2 (Prng.int prng (k - 1)))
        | 3 -> pow2 k
        | _ -> add (Ref.random_bits prng k) (of_int 2)
      in
      let base = Ref.random_bits prng (1 + Prng.int prng (2 * k)) in
      let exp = Ref.random_bits prng (1 + Prng.int prng 100) in
      equal (mod_pow base exp m) (Ref.mod_pow base exp m))

let qcheck_rem_mersenne =
  QCheck.Test.make ~name:"bignum rem = divmod, Mersenne moduli" ~count:200
    QCheck.(pair (int_range 1 530) int64)
    (fun (k, seed) ->
      let open C.Bignum in
      let prng = Prng.create seed in
      let m = mersenne k in
      let x = Ref.random_bits prng (1 + Prng.int prng (3 * k)) in
      let x = if Prng.int prng 4 = 0 then mul m x else x in
      equal (rem x m) (snd (divmod x m)))

let qcheck_bytes_reference =
  QCheck.Test.make ~name:"bignum byte codecs = reference" ~count:300
    QCheck.(pair (string_of_size (Gen.int_bound 80)) (int_bound 90))
    (fun (s, pad_to) ->
      let open C.Bignum in
      let data = Bytes.of_string s in
      let v = of_bytes_be data in
      equal v (Ref.of_bytes_be data)
      && Bytes.equal (to_bytes_be v) (Ref.to_bytes_be v)
      && Bytes.equal (to_bytes_be ~pad_to v) (Ref.to_bytes_be ~pad_to v))

(* Dh on the default group, pinned before the Mersenne loop replaced the
   allocating square-and-multiply: keys, the shared secret, and the quote
   binding an enclave key must never drift *)
let test_dh_known_answer () =
  let hex = C.Bignum.to_hex in
  let prng = Prng.create 2021L in
  let a = C.Dh.generate prng and b = C.Dh.generate prng in
  Alcotest.(check string) "secret"
    "01923f63fafc237d3756f6415ef28a3f8a4e137ca3edac0bbfcd70a32445719ae8fd13703e5d66ca8b1893fd4f95f3e34d354cbb4a616b514de4f1e97404ee416609"
    (hex a.C.Dh.secret);
  Alcotest.(check string) "public a"
    "7a11a0dc3df7b282a49d7310cbe0c6aaef65d21f661d7f3702450864f7d1c3edf9f2019a08ad8557bd2edd94ccff2aa7b34fb9fd2234c4c0dda1504eaa4aebd1c8"
    (hex a.C.Dh.public);
  Alcotest.(check string) "public b"
    "81beabdb0814cd72e5bbd3f4f4bd08695406f014c880190c5b1ca2d8d07c7918f2897b943e5ed146f3b32735a59d00252cc4834082f75519a9ee9bedc231f8d7af"
    (hex b.C.Dh.public);
  let shared = "6c04ebb181ac846bd040de925359286ea21196bcc702e861cec1f7039e3996b1" in
  Alcotest.(check string) "shared a" shared (Hex.encode (C.Dh.shared_secret a b.C.Dh.public));
  Alcotest.(check string) "shared b" shared (Hex.encode (C.Dh.shared_secret b a.C.Dh.public));
  let module Ratls = Deflection_attestation.Attestation.Ratls in
  let platform = Deflection_attestation.Attestation.Platform.create ~seed:5L in
  let prng = Prng.create 2021L in
  let hello, _ = Ratls.party_begin prng in
  let reply, _ =
    Ratls.enclave_accept prng ~platform ~measurement:(Bytes.make 32 'm') ~role:Ratls.Data_owner
      hello
  in
  Alcotest.(check string) "enclave public on the wire" (hex b.C.Dh.public)
    (hex reply.Ratls.enclave_public);
  Alcotest.(check string) "quote report_data"
    "08d7af66ee737538cf65164755dd02886bff448557e4390d8c5aa0aee4232817"
    (Hex.encode
       reply.Ratls.quote.Deflection_attestation.Attestation.Quote.report_data)

let qcheck_channel_roundtrip =
  QCheck.Test.make ~name:"channel seal/open roundtrip" ~count:100 QCheck.string (fun s ->
      let key = Bytes.make 32 'q' in
      let tx = C.Channel.create ~key and rx = C.Channel.create ~key in
      Bytes.to_string (C.Channel.open_ rx (C.Channel.seal tx (Bytes.of_string s))) = s)

let suite =
  [
    Alcotest.test_case "sha256 vectors" `Quick test_sha256_vectors;
    Alcotest.test_case "sha256 incremental" `Quick test_sha256_incremental;
    Alcotest.test_case "hmac vectors" `Quick test_hmac_vectors;
    Alcotest.test_case "hmac verify" `Quick test_hmac_verify;
    Alcotest.test_case "hkdf lengths" `Quick test_hkdf_lengths;
    Alcotest.test_case "chacha20 block vector" `Quick test_chacha20_block;
    Alcotest.test_case "chacha20 involution" `Quick test_chacha20_involution;
    Alcotest.test_case "bignum basics" `Quick test_bignum_basics;
    Alcotest.test_case "bignum divmod matches int" `Quick test_bignum_divmod_matches_int;
    Alcotest.test_case "bignum mod_pow" `Quick test_bignum_mod_pow;
    Alcotest.test_case "bignum bytes roundtrip" `Quick test_bignum_bytes_roundtrip;
    Alcotest.test_case "bignum mod_pow Mersenne grid" `Quick test_mod_pow_mersenne_grid;
    Alcotest.test_case "dh agreement" `Quick test_dh_agreement;
    Alcotest.test_case "dh known answer" `Quick test_dh_known_answer;
    Alcotest.test_case "channel roundtrip" `Quick test_channel_roundtrip;
    Alcotest.test_case "channel tamper" `Quick test_channel_tamper;
    Alcotest.test_case "channel replay" `Quick test_channel_replay;
    Alcotest.test_case "channel reorder rejected" `Quick test_channel_reorder_rejected;
    Alcotest.test_case "channel padding uniform" `Quick test_channel_padding_uniform;
    Alcotest.test_case "channel pad overflow" `Quick test_channel_pad_overflow;
    QCheck_alcotest.to_alcotest qcheck_bignum_addsub;
    QCheck_alcotest.to_alcotest qcheck_bignum_mul_distributes;
    QCheck_alcotest.to_alcotest qcheck_mod_pow_mersenne;
    QCheck_alcotest.to_alcotest qcheck_mod_pow_generic;
    QCheck_alcotest.to_alcotest qcheck_rem_mersenne;
    QCheck_alcotest.to_alcotest qcheck_bytes_reference;
    QCheck_alcotest.to_alcotest qcheck_channel_roundtrip;
  ]
