let block_size = 64

let normalize_key key =
  let key = if Bytes.length key > block_size then Sha256.digest key else key in
  let k = Bytes.make block_size '\x00' in
  Bytes.blit key 0 k 0 (Bytes.length key);
  k

let xor_pad key pad =
  let out = Bytes.create block_size in
  for i = 0 to block_size - 1 do
    Bytes.set out i (Char.chr (Char.code (Bytes.get key i) lxor pad))
  done;
  out

let sha256 ~key msg =
  let key = normalize_key key in
  let inner = Sha256.init () in
  Sha256.update inner (xor_pad key 0x36);
  Sha256.update inner msg;
  let inner_digest = Sha256.finalize inner in
  let outer = Sha256.init () in
  Sha256.update outer (xor_pad key 0x5c);
  Sha256.update outer inner_digest;
  Sha256.finalize outer

let sha256_string ~key msg = sha256 ~key:(Bytes.of_string key) (Bytes.of_string msg)

let equal expect tag =
  if Bytes.length tag <> Bytes.length expect then false
  else begin
    let diff = ref 0 in
    for i = 0 to Bytes.length expect - 1 do
      diff := !diff lor (Char.code (Bytes.get expect i) lxor Char.code (Bytes.get tag i))
    done;
    !diff = 0
  end

let verify ~key msg ~tag = equal (sha256 ~key msg) tag

let hkdf ~key ~info len =
  let out = Buffer.create len in
  let counter = ref 0 in
  while Buffer.length out < len do
    let msg = Bytes.of_string (Printf.sprintf "%s|%d" info !counter) in
    Buffer.add_bytes out (sha256 ~key msg);
    incr counter
  done;
  Bytes.of_string (String.sub (Buffer.contents out) 0 len)
