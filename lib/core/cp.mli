(** Consistency points: WAFL's atomic flush of accumulated changes (§2.1).

    A CP takes every block write staged since the previous CP, allocates a
    virtual VBN (in the owning FlexVol) and a physical VBN (in the
    aggregate) for each, frees the blocks the writes replace (COW), drives
    the device simulators with the resulting I/O, commits the delayed frees
    and bitmap-metafile pages, and finally applies the batched AA-score
    updates to the caches (§3.3). *)

type staged = { vol : Flexvol.t; file : int; offset : int }

type device_report = {
  range_index : int;
  media : string;
  blocks_written : int;
  chains : int;
  full_stripes : int;
  partial_stripes : int;
  tetrises : int;
  parity_writes : int;
  parity_reads : int;
  device_time_us : float;
  ssd_stats : Wafl_device.Ftl.stats option;      (** this CP's delta *)
  ssd_stream_stats : Wafl_device.Ftl.stats array;
      (** this CP's delta per FTL write stream ([[||]] for non-SSD) *)
  smr_random_checksum_writes : int;
  fault : Wafl_fault.Fault.io_stats option;
      (** this CP's fault/retry activity on the range's device; [None]
          when no fault plane is attached *)
}

type report = {
  ops : int;                   (** staged writes processed *)
  blocks_allocated : int;      (** PVBNs actually placed (= ops unless the
                                   aggregate ran out of space) *)
  pvbns_freed : int;
  vvbns_freed : int;
  agg_metafile_pages : int;
  vol_metafile_pages : int;
  devices : device_report list;
  device_time_us : float;      (** max over ranges: groups flush in parallel *)
  cache_work : int;            (** abstract cache maintenance units this CP *)
  alloc_candidates : int;      (** bitmap positions scanned to gather the
                                   CP's free VBNs — fewer per block when
                                   AAs are emptier (§2.5) *)
  fault_totals : Wafl_fault.Fault.io_stats option;
      (** summed fault activity across devices; [None] without a plane *)
}

val timeseries_columns : string list
(** Schema of the per-CP row [run] appends to the installed telemetry
    instance's time series ({!Wafl_telemetry.Timeseries}): CP index,
    op/alloc/free counts, pick and replenish counts, free-block search
    cost in ns per allocated block (the [cp.pick] + [cp.harvest] span
    delta), CP wall ns, the HBPS score-error bound, AA score deciles
    d1..d9, free-space totals and fragmentation
    ([1 - largest_free_run / free_blocks]), the harvest-ring high-water
    mark, modeled device time, fault totals, scrub totals, the SSD
    segregation axes (cumulative write amplification, per-stream
    relocations this CP, peak erase-block wear), and modeled request
    latency ([lat_p50/99/999_ms] overall plus [lat_v0..v3_*] for the
    first four volume slots — all zeros unless the installed telemetry
    instance carries a {!Wafl_telemetry.Latency.t}). *)

val run :
  ?pool:Wafl_par.Par.t -> ?temp:Temperature.t -> Write_alloc.t -> staged list -> report
(** Execute one CP over the staged writes.  With a pool (explicit, or
    installed via [Wafl_par.Par.install]) the delayed-free apply of the
    aggregate and each volume is chunked over page-aligned slices of the
    block space; reports, telemetry counters, and all bitmap/cache state
    are identical to a serial CP at any domain count.  Volumes commit and
    ranges flush one after another, in order.

    Each range's device flush receives this CP's writes to it as one
    array of range-local VBNs in allocation order; the RAID accounting
    ({!Wafl_raid.Group.record_flush}) sorts only its own scratch copy, so
    fault draws, SMR zone streams and FTL write streams see blocks in the
    order they were allocated.

    With [temp] (and more than one configured class) each staged write is
    classified before placement — by the lifespan of the version it
    overwrites — its physical blocks come from the matching
    {!Write_alloc} class row, and each class's batch is flushed to its
    own FTL write stream on SSD ranges.  Births are recorded and the
    temperature clock ticks once per CP either way. *)

val empty_report : report
