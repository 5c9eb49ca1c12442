(** Enclave measurement (MRENCLAVE equivalent): a SHA-256 digest over the
    initial contents the hardware would hash at build time — the layout
    geometry and the consumer (loader/verifier) code placed in the
    consumer region. The dynamically loaded target binary is deliberately
    NOT part of the measurement; that is the whole point of the paper. *)

val measure : Layout.t -> consumer_code:bytes -> bytes
(** 32-byte digest. *)
