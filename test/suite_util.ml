module Prng = Deflection_util.Prng
module Bytebuf = Deflection_util.Bytebuf
module Hex = Deflection_util.Hex
module Fs = Deflection_util.Fs

let test_prng_deterministic () =
  let a = Prng.create 42L and b = Prng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1L and b = Prng.create 2L in
  Alcotest.(check bool) "different seeds differ" true (Prng.next_int64 a <> Prng.next_int64 b)

let test_prng_int_bounds () =
  let p = Prng.create 7L in
  for _ = 1 to 1000 do
    let v = Prng.int p 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_prng_copy_independent () =
  let a = Prng.create 5L in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.next_int64 a) (Prng.next_int64 b)

let test_prng_float_range () =
  let p = Prng.create 11L in
  for _ = 1 to 1000 do
    let f = Prng.float p 1.0 in
    Alcotest.(check bool) "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_prng_shuffle_permutes () =
  let p = Prng.create 3L in
  let a = Array.init 50 Fun.id in
  Prng.shuffle p a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_bytebuf_roundtrip () =
  let b = Bytebuf.create () in
  Bytebuf.u8 b 0xAB;
  Bytebuf.u16 b 0xBEEF;
  Bytebuf.u32 b 0xDEADBEEF;
  Bytebuf.u64 b 0x0123456789ABCDEFL;
  Bytebuf.string b "hello";
  let r = Bytebuf.Reader.of_bytes (Bytebuf.contents b) in
  Alcotest.(check int) "u8" 0xAB (Bytebuf.Reader.u8 r);
  Alcotest.(check int) "u16" 0xBEEF (Bytebuf.Reader.u16 r);
  Alcotest.(check int) "u32" 0xDEADBEEF (Bytebuf.Reader.u32 r);
  Alcotest.(check int64) "u64" 0x0123456789ABCDEFL (Bytebuf.Reader.u64 r);
  Alcotest.(check string) "string" "hello" (Bytebuf.Reader.string r);
  Alcotest.(check int) "drained" 0 (Bytebuf.Reader.remaining r)

let test_bytebuf_truncation () =
  let r = Bytebuf.Reader.of_bytes (Bytes.of_string "ab") in
  Alcotest.check_raises "u32 past end" Bytebuf.Reader.Truncated (fun () ->
      ignore (Bytebuf.Reader.u32 r))

let test_hex_roundtrip () =
  let data = Bytes.of_string "\x00\x01\xfe\xff DEFLECTION" in
  Alcotest.(check bytes) "roundtrip" data (Hex.decode (Hex.encode data))

let test_hex_rejects () =
  Alcotest.check_raises "odd length" (Invalid_argument "Hex.decode: odd length") (fun () ->
      ignore (Hex.decode "abc"));
  Alcotest.check_raises "bad char" (Invalid_argument "Hex.decode: non-hex character") (fun () ->
      ignore (Hex.decode "zz"))

let qcheck_bytebuf_u64 =
  QCheck.Test.make ~name:"bytebuf u64 roundtrip" ~count:200 QCheck.int64 (fun v ->
      let b = Bytebuf.create () in
      Bytebuf.u64 b v;
      Bytebuf.Reader.u64 (Bytebuf.Reader.of_bytes (Bytebuf.contents b)) = v)

let qcheck_hex =
  QCheck.Test.make ~name:"hex roundtrip" ~count:200 QCheck.string (fun s ->
      let b = Bytes.of_string s in
      Bytes.equal (Hex.decode (Hex.encode b)) b)

let test_write_atomic_keeps_old_bytes () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "deflection-test-fs/nested" in
  Fs.mkdir_p dir;
  Alcotest.(check bool) "mkdir_p made the parents" true (Sys.is_directory dir);
  let path = Filename.concat dir "evidence.json" in
  let tmp = path ^ ".tmp" in
  if Sys.file_exists tmp then Sys.rmdir tmp;
  Fs.write_atomic path "old bytes";
  Alcotest.(check string) "written" "old bytes" (Fs.read_file path);
  Alcotest.(check bool) "no temporary left behind" false (Sys.file_exists tmp);
  (* a directory where the temporary file goes: the write fails and the
     target keeps its old bytes *)
  Sys.mkdir tmp 0o755;
  (match Fs.write_atomic path "new bytes" with
  | () -> Alcotest.fail "write_atomic succeeded without its temporary file"
  | exception Sys_error _ -> ());
  Alcotest.(check string) "old bytes unchanged" "old bytes" (Fs.read_file path);
  Sys.rmdir tmp;
  Fs.write_atomic path "new bytes";
  Alcotest.(check string) "replaced" "new bytes" (Fs.read_file path)

let suite =
  [
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng seed sensitivity" `Quick test_prng_seed_sensitivity;
    Alcotest.test_case "prng int bounds" `Quick test_prng_int_bounds;
    Alcotest.test_case "prng copy independent" `Quick test_prng_copy_independent;
    Alcotest.test_case "prng float range" `Quick test_prng_float_range;
    Alcotest.test_case "prng shuffle permutes" `Quick test_prng_shuffle_permutes;
    Alcotest.test_case "bytebuf roundtrip" `Quick test_bytebuf_roundtrip;
    Alcotest.test_case "bytebuf truncation" `Quick test_bytebuf_truncation;
    Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
    Alcotest.test_case "hex rejects" `Quick test_hex_rejects;
    Alcotest.test_case "write_atomic keeps old bytes" `Quick test_write_atomic_keeps_old_bytes;
    QCheck_alcotest.to_alcotest qcheck_bytebuf_u64;
    QCheck_alcotest.to_alcotest qcheck_hex;
  ]
