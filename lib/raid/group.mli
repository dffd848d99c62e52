(** Per-RAID-group write accounting across consistency points.

    A full stripe write provides every data block of a stripe, so parity
    is computed without reads; a partial stripe write forces RAID to read
    the old data and parity first (§2.3).  A tetris is 64 consecutive
    stripes, the unit WAFL ships to the group as one I/O (§4.2); a write
    chain is a run of consecutive DBNs on one device written with a single
    I/O (§2.4).  Flush by flush, this module derives all three and
    accumulates the totals the evaluation reports (Figures 1, 6, 7). *)

type t

type totals = {
  flushes : int;
  blocks_written : int;             (** data blocks *)
  tetrises_written : int;
  full_stripes : int;
  partial_stripes : int;
  parity_writes : int;
  extra_parity_reads : int;
  per_device_blocks : int array;
  chain_count : int;                (** device write I/Os issued *)
  chain_blocks : int;
}

val create : Geometry.t -> t

val geometry : t -> Geometry.t

type flush_report = {
  blocks : int;              (** distinct data blocks written *)
  full_stripes : int;
  partial_stripes : int;
  parity_writes : int;       (** stripes written * parity_devices *)
  extra_reads : int;
      (** parity read-modify-write: for a partial stripe with [k] new
          blocks, the [k] old data blocks plus the old parity *)
  tetrises : int;            (** distinct tetrises touched *)
  per_device_blocks : int array;  (** blocks written per data device *)
  chains : int;              (** device write I/Os this flush *)
}

val record_flush : t -> vbns:int array -> flush_report
(** Account one CP's writes to this group (VBNs local to the group, in
    any order; duplicates are counted once) and return that flush's own
    report.  [vbns] is not modified: the sweep sorts a scratch copy held
    by the group.  Raises [Invalid_argument] on a VBN outside the
    group. *)

val totals : t -> totals

val mean_chain_len : totals -> float
(** Blocks per device write I/O; 0 when nothing was written. *)

val stripe_fullness : totals -> float
(** Fraction of stripes written that were full. *)

val reset : t -> unit

val pp_totals : Format.formatter -> totals -> unit
