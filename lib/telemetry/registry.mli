(** Metrics registry: named counters, gauges and histograms.

    Handles are cheap records meant to be resolved once (by name) and
    then updated directly on whatever path owns them.  Per-CP paths may
    instead go through the name-based helpers each time; the hot allocation
    path must not (see {!Tracer} for the per-pick instrument).  Metric
    names are dotted, e.g. ["cache.picks"].

    Domain safety: counters and gauges are [Atomic]-backed — concurrent
    [incr]/[add]/[set_max] from pool domains lose no updates — and
    registration of a new name is serialised by an internal lock.
    Histograms shard per observing domain ({!Shards}) and merge the
    shards on read, so concurrent [observe] from pool domains loses no
    updates either; a domain's observations are guaranteed visible to a
    reader once a synchronising edge (e.g. pool task completion)
    separates them. *)

type t

type counter
type gauge
type histogram

val create : unit -> t

val counter : t -> string -> counter
(** Get or register the counter [name].  Raises [Invalid_argument] when
    the name is already registered as a different metric kind. *)

val gauge : t -> string -> gauge
val histogram : t -> string -> histogram

(* --- counters: monotonically increasing ints --- *)

val incr : counter -> unit
val add : counter -> int -> unit
(** [add c n] requires [n >= 0]. *)

val count : counter -> int

(* --- gauges: last-written float --- *)

val set : gauge -> float -> unit
val set_max : gauge -> float -> unit
(** Keep the maximum of the current and the offered value. *)

val value : gauge -> float

(* --- histograms: {!Hdrhist} per observing domain --- *)

val observe : histogram -> int -> unit
(** Record one non-negative int (negatives clamp to 0) into the calling
    domain's shard. *)

val merged : histogram -> Hdrhist.t
(** A fresh {!Hdrhist.t} merging every shard: exact count, sum, min and
    max; bucket-quantized quantiles (relative error <= 1/32). *)

(* --- enumeration (registration order) --- *)

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

val name : metric -> string
val fold : t -> init:'a -> f:('a -> metric -> 'a) -> 'a
val find : t -> string -> metric option
val clear : t -> unit
(** Reset every metric to its zero state (handles stay valid). *)
