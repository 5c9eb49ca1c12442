(** Minimal hand-rolled JSON: construction, serialization and parsing.

    No external dependencies — this is the wire format of the telemetry
    exporters, the benchmark harness' machine-readable results
    ([bench/results/latest.json]) and the [json_check] smoke gate. The
    parser accepts exactly the JSON this module emits (plus standard
    escapes), which is all the round-trip tests need. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** non-finite floats serialize as [null] *)
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** Compact by default; [~pretty:true] uses 2-space indentation. *)

val to_channel : ?pretty:bool -> out_channel -> t -> unit

val parse : string -> (t, string) result
(** Strict parse of a complete JSON document (trailing garbage is an
    error). *)

val member : string -> t -> t option
(** [member key json] looks up [key] when [json] is an [Obj]. *)

val str : string -> t -> string option
(** [str key json] is the string member [key], if [json] has one. *)

val int : string -> t -> int option
(** [int key json] is the integer member [key], if [json] has one. *)

val list : string -> t -> t list option
(** [list key json] is the array member [key], if [json] has one. *)
