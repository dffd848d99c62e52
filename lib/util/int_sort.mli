(** In-place sorting of int scratch arrays. *)

val prefix : int array -> int -> unit
(** [prefix a n] sorts [a.(0 .. n-1)] ascending in place, leaving the rest
    of [a] untouched.  No heap allocation, whatever [n] — for reused
    scratch arrays on per-CP paths. *)
