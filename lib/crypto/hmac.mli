(** HMAC-SHA256 (RFC 2104). Used to sign attestation quotes (standing in
    for the platform's EPID/ECDSA key) and to authenticate channel records. *)

val sha256 : key:bytes -> bytes -> bytes
(** 32-byte tag. *)

val sha256_string : key:string -> string -> bytes

val verify : key:bytes -> bytes -> tag:bytes -> bool
(** Constant-time comparison of the expected tag. *)

val equal : bytes -> bytes -> bool
(** [equal expected tag] — constant-time tag comparison, for callers that
    computed the expected tag themselves. *)

val hkdf : key:bytes -> info:string -> int -> bytes
(** Simple HKDF-expand style key derivation: concatenated
    [HMAC(key, info || counter)] blocks, truncated to the requested
    length. *)
