(** A minimal JSON reader/writer — just enough to parse the exporter's
    own output (metrics, time-series, bench references) back into a tree
    for regression diffing and round-trip tests.  No external dependency,
    no streaming: documents here are small (tens of KiB).

    Numbers all parse to [float]; the exporters print integers without an
    exponent and other values with 17 significant digits, so every number
    they emit survives the round-trip exactly. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** members in document order *)

val parse : string -> (t, string) result
(** Parse one JSON document (surrounding whitespace allowed).  The error
    string carries a character offset. *)

val parse_exn : string -> t
(** Raises [Failure] with the {!parse} error. *)

val to_string : t -> string
(** Compact rendering (objects keep member order). *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on a missing field or a non-object. *)

val number_leaves : t -> (string list * float) list
(** Every numeric leaf with its path from the root, in document order —
    the flattened view the regression differ compares.  List elements
    contribute their index as a path component. *)

val bool_leaves : t -> (string list * bool) list
(** Every boolean leaf with its path, like {!number_leaves}. *)
