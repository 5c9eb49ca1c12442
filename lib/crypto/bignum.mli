(** Arbitrary-precision natural numbers, just large enough to run the
    Diffie–Hellman key agreement of the RA-TLS channel (the paper's key
    agreement procedure, Section III-A). Little-endian limbs in base 2^26;
    the byte codecs move a limb at a time, in time linear in the length.

    Only the operations the protocol needs are exposed; all values are
    non-negative and [sub] requires its first argument to dominate. *)

type t

val zero : t
val one : t
val of_int : int -> t
(** Requires a non-negative argument. *)

val to_int_opt : t -> int option
(** [Some n] when the value fits in a native int. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool

val add : t -> t -> t
val sub : t -> t -> t
(** [sub a b] requires [a >= b]; raises [Invalid_argument] otherwise. *)

val mul : t -> t -> t
val divmod : t -> t -> t * t
(** [divmod a b = (q, r)] with [a = q*b + r], [r < b]. Raises
    [Division_by_zero] when [b] is zero. *)

val rem : t -> t -> t
(** [rem a m] is [a mod m]. For a Mersenne [m = 2^k - 1] it sums the k-bit
    chunks of [a] (since [2^k = 1 mod m]) instead of dividing. *)

val mod_pow : t -> t -> t -> t
(** [mod_pow base exp m] is [base^exp mod m].

    A Mersenne modulus [m = 2^k - 1] (the only kind {!Dh} uses) takes a
    loop that allocates two limb buffers up front and nothing per step:
    a squaring that forms each cross product once, a column-accumulated
    multiply, and a fold [(x mod 2^k) + (x >> k)] after every product. A
    base below 2^26 (keygen's [g = 3]) multiplies in as a single scalar
    limb per set exponent bit; any other base goes left to right over
    fixed 4-bit exponent windows with a 15-entry table of its powers.
    Every other modulus takes binary square-and-multiply over {!divmod}.

    The limbs stay 26 bits wide so that a column sum never needs a carry
    per limb pair: an M521 residue has 21 limbs, and 21 products of 52
    bits sum below 2^57, far inside a 63-bit native int. 28-bit limbs
    would still fit (19 limbs, below 2^61) but save at most (21/19)^2,
    about 1.2x, of the multiply work; 29 bits or more overflow a column.
    Moduli of more than 512 limbs take the generic path. *)

val bit_length : t -> int
val shift_left : t -> int -> t
val of_bytes_be : bytes -> t
val to_bytes_be : ?pad_to:int -> t -> bytes
val of_hex : string -> t
val to_hex : t -> string
val random_below : Deflection_util.Prng.t -> t -> t
(** Uniform-ish value in [\[1, n)]; requires [n > 1]. *)

val pp : Format.formatter -> t -> unit
