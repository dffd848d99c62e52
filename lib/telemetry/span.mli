(** Hierarchical phase spans: wall-clock timings for the named phases of a
    consistency point (and the other long scans), accumulated per phase
    kind.

    The kind set is closed — one constructor per instrumented phase — so a
    recorder is a handful of preallocated atomic arrays and [enter]/[exit]
    never allocate, never take a lock, and are safe to call from pool
    domains (each domain stamps its start time into its own slot).  The
    static {!parent} relation recreates the nesting ([Pick], [Harvest],
    [Place], [Device_flush] and [Activemap_commit] live under the per-CP
    root, [Tetris_write] under the device flush, [Bit_clear] under the
    activemap commit) without runtime stacks, which is what keeps exits
    from concurrent domains well-defined.

    Callers normally go through {!Telemetry.span_enter} /
    {!Telemetry.span_exit}, which are single-branch no-ops when no
    telemetry instance is installed — the zero-allocation contract of the
    consume path is unaffected by instrumentation being compiled in. *)

type kind =
  | Cp  (** one whole consistency point ([Cp.run]) *)
  | Pick  (** AA selection for a refill ([Write_alloc.pick_aa]) *)
  | Harvest  (** bitmap walk filling a harvest ring *)
  | Place
      (** file-map update, COW free queueing and temperature
          classification for one volume's batch of writes ([Cp.run]) *)
  | Tetris_write  (** RAID tetris/stripe accounting inside a range flush *)
  | Device_flush  (** one range's device simulation *)
  | Activemap_commit  (** delayed-free commit + metafile flush *)
  | Bit_clear  (** the bit-clearing apply inside the activemap commit *)
  | Mount_rebuild  (** full-scan or TopAA mount ([Mount.mount]) *)
  | Iron  (** consistency check / repair scans *)
  | Cleaner  (** segment-cleaning passes *)
  | Scrub  (** background pagestore-integrity verification between CPs *)

val all : kind list
(** Every kind, in rendering order (parents before children). *)

val name : kind -> string
(** Stable dotted name, e.g. ["cp.device_flush"]. *)

val parent : kind -> kind option
(** Static nesting: [None] for roots ([Cp], [Mount_rebuild], [Iron],
    [Cleaner], [Scrub]). *)

val depth : kind -> int
(** Number of ancestors (0 for roots). *)

val now_ns : unit -> int
(** Monotonic clock in nanoseconds (CLOCK_MONOTONIC; arbitrary origin,
    only differences are meaningful); the default clock of {!create}. *)

type t

val create : ?clock:(unit -> int) -> unit -> t
(** [clock] returns nanoseconds; tests inject a deterministic one. *)

val enter : t -> kind -> unit
val exit : t -> kind -> unit
(** Close the calling domain's open span of that kind; a stray [exit]
    without a matching [enter] is ignored.  At most one span per (domain,
    kind) may be open — phase code upholds this by construction. *)

val count : t -> kind -> int
(** Completed spans of this kind. *)

val total_ns : t -> kind -> int
(** Wall nanoseconds accumulated over completed spans of this kind.
    Concurrent spans (one kind open on several domains at once) each
    contribute their full duration, so a kind's total may exceed its
    parent's. *)

val open_now : t -> kind -> int
(** Spans of this kind currently open — the live "current phase" signal. *)

val clear : t -> unit
