open Wafl_raid
open Wafl_device
open Wafl_aacache
open Wafl_telemetry
module Par = Wafl_par.Par

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
  ssd_stats : Ftl.stats option;
  ssd_stream_stats : Ftl.stats array;
  smr_random_checksum_writes : int;
  fault : Wafl_fault.Fault.io_stats option;
}

type report = {
  ops : int;
  blocks_allocated : int;
  pvbns_freed : int;
  vvbns_freed : int;
  agg_metafile_pages : int;
  vol_metafile_pages : int;
  devices : device_report list;
  device_time_us : float;
  cache_work : int;
  alloc_candidates : int;
  fault_totals : Wafl_fault.Fault.io_stats option;
}

let empty_report =
  {
    ops = 0;
    blocks_allocated = 0;
    pvbns_freed = 0;
    vvbns_freed = 0;
    agg_metafile_pages = 0;
    vol_metafile_pages = 0;
    devices = [];
    device_time_us = 0.0;
    cache_work = 0;
    alloc_candidates = 0;
    fault_totals = None;
  }

(* Writes grouped per volume, preserving order. *)
let group_by_vol staged =
  let vols = ref [] in
  List.iter
    (fun s ->
      match List.find_opt (fun (v, _) -> v == s.vol) !vols with
      | Some (_, items) -> items := s :: !items
      | None -> vols := (s.vol, ref [ s ]) :: !vols)
    staged;
  List.rev_map (fun (v, items) -> (v, List.rev !items)) !vols

(* Stable counting split into [buckets] arrays: [iter emit] must call
   [emit bucket value] for each item, in order, the same way both times it
   runs; every bucket keeps that order.  CP writes are in allocation
   order, and fault draws, SMR zones and FTL streams all consume blocks in
   that order. *)
let split ~buckets iter =
  let counts = Array.make buckets 0 in
  iter (fun b _ -> counts.(b) <- counts.(b) + 1);
  let out = Array.map (fun c -> Array.make c 0) counts in
  Array.fill counts 0 buckets 0;
  iter (fun b v ->
      out.(b).(counts.(b)) <- v;
      counts.(b) <- counts.(b) + 1);
  out

(* Rounded to whole AZCS regions so device boundaries never split a region
   (the tracker's region math is global). *)
let smr_device_span geometry =
  Wafl_util.Bitops.round_up
    (Azcs.device_span_of_data (Geometry.device_blocks geometry))
    Azcs.region_blocks

(* Per-device write streams for an SMR range, indexed by data device: each
   device's DBNs in allocation order (the allocator finishes one AA before
   starting the next, and sorting would interleave them).  A data DBN lands
   at its AZCS device position (checksum blocks interleaved), offset into
   the device's span so zone arithmetic stays per-device. *)
let smr_streams geometry locals =
  let device_blocks = Geometry.device_blocks geometry in
  let span = smr_device_span geometry in
  split ~buckets:(Geometry.data_devices geometry) (fun emit ->
      Array.iter
        (fun local ->
          let device = local / device_blocks in
          emit device
            ((device * span) + Azcs.device_position_of_data (local mod device_blocks)))
        locals)

let flush_range_body (range : Aggregate.range) ~cls locals freed_locals =
  let flush =
    match range.Aggregate.group with
    | Some group ->
      Telemetry.span_enter Span.Tetris_write;
      let f = Group.record_flush group ~vbns:locals in
      Telemetry.span_exit Span.Tetris_write;
      Some f
    | None -> None
  in
  let media =
    match range.Aggregate.media with
    | Some m -> Config.media_name m
    | None -> "object"
  in
  let base_report =
    {
      range_index = range.Aggregate.index;
      media;
      blocks_written = Array.length locals;
      chains = 0;
      full_stripes = 0;
      partial_stripes = 0;
      tetrises = 0;
      parity_writes = 0;
      parity_reads = 0;
      device_time_us = 0.0;
      ssd_stats = None;
      ssd_stream_stats = [||];
      smr_random_checksum_writes = 0;
      fault = None;
    }
  in
  let with_raid =
    match flush with
    | None -> base_report
    | Some f ->
      {
        base_report with
        chains = f.Group.chains;
        full_stripes = f.Group.full_stripes;
        partial_stripes = f.Group.partial_stripes;
        tetrises = f.Group.tetrises;
        parity_writes = f.Group.parity_writes;
        parity_reads = f.Group.extra_reads;
      }
  in
  if with_raid.blocks_written > 0 && flush <> None then
    Telemetry.trace_tetris_write ~space:range.Aggregate.index ~tetrises:with_raid.tetrises
      ~full_stripes:with_raid.full_stripes ~partial_stripes:with_raid.partial_stripes;
  let fault_before =
    match range.Aggregate.fault with
    | Some dev -> Wafl_fault.Fault.stats dev
    | None -> Wafl_fault.Fault.zero_stats
  in
  let report =
    match range.Aggregate.device with
    | Aggregate.Hdd_sim profile ->
      (* One positioning per chain; stream data + parity; parity reads for
         partial stripes are random I/Os.  The fault plane is consulted per
         data block inside the cost model (HDD sims are stateless). *)
      let write_time =
        Hdd.faulty_write_cost_us range.Aggregate.fault profile
          ~chains:(with_raid.chains + with_raid.partial_stripes)
          ~locals ~parity_writes:with_raid.parity_writes
      in
      let read_time = Hdd.random_read_cost_us profile ~ios:with_raid.parity_reads in
      { with_raid with device_time_us = write_time +. read_time }
    | Aggregate.Ssd_sim ftl ->
      let before = Ftl.stats ftl in
      let ns = Ftl.streams ftl in
      let sbefore = Array.init ns (Ftl.stream_stats ftl) in
      (match cls with
      | Some cls ->
        (* Temperature routing: each class's batch goes to its own FTL
           write stream (classes beyond the drive's stream count share
           the last one), so segregated AAs also stop sharing open erase
           blocks inside the device. *)
        Array.iteri
          (fun s batch ->
            if Array.length batch > 0 then Ftl.write_batch ~stream:s ftl batch)
          (split ~buckets:ns (fun emit ->
               Array.iteri (fun i local -> emit (min cls.(i) (ns - 1)) local) locals))
      | None -> Ftl.write_batch ftl locals);
      Ftl.trim_batch ftl freed_locals;
      let delta = Ftl.diff_stats ~after:(Ftl.stats ftl) ~before in
      let sdelta =
        Array.init ns (fun s ->
            Ftl.diff_stats ~after:(Ftl.stream_stats ftl s) ~before:sbefore.(s))
      in
      {
        with_raid with
        device_time_us = Ftl.service_time_us ftl ~stats_delta:delta;
        ssd_stats = Some delta;
        ssd_stream_stats = sdelta;
      }
    | Aggregate.Smr_sim (smr, trackers) -> (
      match range.Aggregate.geometry with
      | None -> with_raid
      | Some geometry ->
        let before = Smr.stats smr in
        let random_cs = ref 0 in
        Array.iteri
          (fun device stream ->
            let tracker = trackers.(device) in
            Array.iter
              (fun dev_pos ->
                (* stream positions are device positions: checksum blocks are
                   already interleaved by smr_streams' mapping.  Region closes
                   are written before the data block that triggered them, so a
                   sequential close lands exactly in stream order. *)
                List.iter
                  (fun cw ->
                    Smr.write smr cw.Azcs.block;
                    if not cw.Azcs.sequential then incr random_cs)
                  (Azcs.write tracker dev_pos);
                Smr.write smr dev_pos)
              stream)
          (smr_streams geometry locals);
        let after = Smr.stats smr in
        {
          with_raid with
          device_time_us = after.Smr.total_us -. before.Smr.total_us;
          smr_random_checksum_writes = !random_cs;
        })
    | Aggregate.Object_sim store ->
      let before = Object_store.stats store in
      Object_store.write_batch store locals;
      let delta = Object_store.diff_stats ~after:(Object_store.stats store) ~before in
      { with_raid with device_time_us = Object_store.cost_us store ~stats_delta:delta }
  in
  match range.Aggregate.fault with
  | None -> report
  | Some dev ->
    let fs =
      Wafl_fault.Fault.diff_stats ~before:fault_before ~after:(Wafl_fault.Fault.stats dev)
    in
    if fs.Wafl_fault.Fault.injected_transient + fs.Wafl_fault.Fault.torn
       + fs.Wafl_fault.Fault.failed + fs.Wafl_fault.Fault.spikes > 0
    then
      Telemetry.trace_fault_inject ~space:range.Aggregate.index
        ~transients:fs.Wafl_fault.Fault.injected_transient ~torn:fs.Wafl_fault.Fault.torn
        ~failed:fs.Wafl_fault.Fault.failed ~spikes:fs.Wafl_fault.Fault.spikes;
    if fs.Wafl_fault.Fault.retries > 0 then
      Telemetry.trace_io_retry ~space:range.Aggregate.index
        ~retries:fs.Wafl_fault.Fault.retries ~ok:fs.Wafl_fault.Fault.retries_ok;
    {
      report with
      (* retry backoff and latency spikes stall this range's flush *)
      device_time_us = report.device_time_us +. fs.Wafl_fault.Fault.penalty_us;
      fault = Some fs;
    }

(* The [Fun.protect] closure is per-range-per-CP — off the hot path. *)
let flush_range range ~cls locals freed_locals =
  Telemetry.span_enter Span.Device_flush;
  Fun.protect
    ~finally:(fun () -> Telemetry.span_exit Span.Device_flush)
    (fun () -> flush_range_body range ~cls locals freed_locals)

(* Aggregate cache stats over the physical ranges and this CP's active
   volumes: (picks, replenishes, work, worst HBPS score error). *)
let cache_totals ranges by_vol =
  let picks = ref 0 and repl = ref 0 and work = ref 0 and err = ref 0.0 in
  let tally = function
    | None -> ()
    | Some c ->
      let s = Cache.stats c in
      picks := !picks + s.Cache.picks;
      repl := !repl + s.Cache.replenishes;
      work := !work + s.Cache.work;
      err := Float.max !err s.Cache.score_error_max
  in
  Array.iter (fun (r : Aggregate.range) -> tally r.Aggregate.cache) ranges;
  List.iter (fun (vol, _) -> tally (Flexvol.cache vol)) by_vol;
  (!picks, !repl, !work, !err)

(* Schema of the per-CP time-series row sampled at the end of [run]; one
   name per cell of the row array below, in order. *)
let timeseries_columns =
  [
    "cp"; "ops"; "blocks_allocated"; "pvbns_freed"; "picks"; "replenishes";
    "search_ns_per_block"; "cp_wall_ns"; "hbps_score_error_max"; "aa_score_d1";
    "aa_score_d2"; "aa_score_d3"; "aa_score_d4"; "aa_score_d5"; "aa_score_d6";
    "aa_score_d7"; "aa_score_d8"; "aa_score_d9"; "free_blocks"; "free_frac";
    "free_runs"; "largest_free_run"; "frag"; "ring_high_water"; "device_us";
    "fault_transients"; "fault_torn"; "fault_failed"; "fault_retries";
    "scrub_pages"; "scrub_bad"; "ssd_wa"; "ssd_reloc_s0"; "ssd_reloc_s1";
    "ssd_reloc_s2"; "ssd_reloc_s3"; "ssd_max_wear";
    (* Modeled request latency (ms), zero when no latency recorder is
       attached.  Volume slots are first-seen order and only the first
       four get columns (keeping the schema fixed across runs, like the
       reloc_s* cells); later volumes stay visible in the health pane and
       the Prometheus export. *)
    "lat_p50_ms"; "lat_p99_ms"; "lat_p999_ms";
    "lat_v0_p50_ms"; "lat_v0_p99_ms"; "lat_v0_p999_ms";
    "lat_v1_p50_ms"; "lat_v1_p99_ms"; "lat_v1_p999_ms";
    "lat_v2_p50_ms"; "lat_v2_p99_ms"; "lat_v2_p999_ms";
    "lat_v3_p50_ms"; "lat_v3_p99_ms"; "lat_v3_p999_ms";
    (* The rest of the CP's report, so this row carries every per-CP fact:
       free, metafile, cache and scan counts, the fault totals not in a
       column above, and per-range device work in four slots (ranges past
       the fourth add into range3_*, like the ssd_reloc_s* cells). *)
    "vvbns_freed"; "agg_metafile_pages"; "vol_metafile_pages"; "cache_work";
    "alloc_candidates"; "fault_retries_ok"; "fault_penalty_us";
    "range0_blocks_written"; "range0_device_us"; "range0_tetrises";
    "range1_blocks_written"; "range1_device_us"; "range1_tetrises";
    "range2_blocks_written"; "range2_device_us"; "range2_tetrises";
    "range3_blocks_written"; "range3_device_us"; "range3_tetrises";
  ]

let run ?pool ?temp walloc staged =
  let pool = Par.resolve pool in
  Telemetry.trace_cp_begin ();
  Telemetry.span_enter Span.Cp;
  let cp_t0 = Telemetry.now_ns () in
  let pick_ns0 = Telemetry.span_total_ns Span.Pick in
  let harvest_ns0 = Telemetry.span_total_ns Span.Harvest in
  let aggregate = Write_alloc.aggregate walloc in
  let by_vol = group_by_vol staged in
  let ranges = Aggregate.ranges aggregate in
  let picks_before, replenishes_before, cache_work_before, _ = cache_totals ranges by_vol in
  let candidates_before = Write_alloc.candidates_scanned walloc in
  (* 1. Allocate virtual VBNs per volume and physical VBNs across ranges;
        update inodes and container maps; queue COW frees. *)
  let ops = List.length staged in
  let placed = ref 0 in
  let vvbn_frees = ref 0 in
  (* Request-latency accounting: per-volume (slot, fresh, overwrite)
     placement counts, gathered only when a latency recorder is live. *)
  let lat_on = Telemetry.lat_active () in
  let lat_groups = ref [] in
  (* Temperature routing is active when an inference handle with more than
     one class is given. *)
  let routing =
    match temp with
    | Some tm when Temperature.classes tm > 1 -> Some tm
    | _ -> None
  in
  (* This CP's physical allocations, newest batch first: (temperature
     class, PVBNs, how many of them were placed). *)
  let batches = ref [] in
  List.iter
    (fun (vol, writes) ->
      Wafl_fault.Crash.point "cp.place_vol";
      let n = List.length writes in
      let vvbns = Array.make (max 1 n) 0 in
      let got_v = Write_alloc.allocate_vvbns_into walloc vol ~dst:vvbns n in
      let lat_fresh = ref 0 and lat_over = ref 0 in
      (* Place one write at its allocated vvbn/pvbn pair. *)
      let place_one w vv pv =
        (match Flexvol.write_file vol ~file:w.file ~offset:w.offset ~vvbn:vv with
        | Some old_vvbn ->
          incr lat_over;
          (* COW: the replaced block dies at this CP — unless a snapshot
             still pins it, in which case it merely leaves the active
             map and is released at snapshot deletion *)
          if Flexvol.snapshot_holds vol ~vvbn:old_vvbn then
            Flexvol.detach_vvbn vol ~vvbn:old_vvbn
          else begin
            (match Flexvol.pvbn_of_vvbn vol old_vvbn with
            | Some old_pvbn -> Aggregate.queue_free aggregate ~pvbn:old_pvbn
            | None -> ());
            Flexvol.queue_unmap vol ~vvbn:old_vvbn;
            incr vvbn_frees
          end
        | None -> incr lat_fresh);
        Flexvol.attach_reserved vol ~vvbn:vv ~pvbn:pv;
        (match temp with
        | Some tm ->
          Temperature.note_birth tm ~uid:(Flexvol.uid vol)
            ~blocks:(Flexvol.blocks vol) ~vvbn:vv
        | None -> ());
        incr placed
      in
      (* Temperature class of each write that got a vvbn (the first
         [got_v]); unrouted, every write is class 0.  Routed (SepBIT-style
         segregation), a write is classified by the lifespan of the
         version it kills, before any of this CP's placements mutate the
         file maps. *)
      let classes, cls =
        match routing with
        | None -> (1, None)
        | Some tm ->
          let uid = Flexvol.uid vol and vblocks = Flexvol.blocks vol in
          let cls = Array.make got_v 0 in
          Telemetry.span_enter Span.Place;
          List.iteri
            (fun k w ->
              if k < got_v then begin
                let prev = Flexvol.read_file vol ~file:w.file ~offset:w.offset in
                cls.(k) <-
                  Temperature.slot_of tm
                    (Temperature.classify tm ~uid ~blocks:vblocks ~file:w.file ~prev)
              end)
            writes;
          Telemetry.span_exit Span.Place;
          (Temperature.classes tm, Some cls)
      in
      let class_of k = match cls with None -> 0 | Some cls -> cls.(k) in
      let per_class = Array.make classes 0 in
      for k = 0 to got_v - 1 do
        let c = class_of k in
        per_class.(c) <- per_class.(c) + 1
      done;
      (* Each class's batch, in write order, allocates through its own
         Write_alloc cursor row so classes land in different AAs.  Each
         batch walks the write list rather than a per-CP index array, so
         the unrouted path allocates nothing beyond its PVBN batch. *)
      Array.iteri
        (fun c bn ->
          if bn > 0 then begin
            let pvbns = Array.make bn 0 in
            let got_p = Write_alloc.allocate_pvbns_into ~cls:c walloc ~dst:pvbns bn in
            batches := (c, pvbns, got_p) :: !batches;
            (* [j] counts this class's writes so far *)
            let rec place writes k j =
              match writes with
              | w :: rest when k < got_v ->
                if class_of k <> c then place rest (k + 1) j
                else begin
                  if j < got_p then place_one w vvbns.(k) pvbns.(j)
                  else
                    (* reserved virtual block with no physical home
                       (aggregate out of space): hand it back *)
                    Flexvol.release_reserved vol ~vvbn:vvbns.(k);
                  place rest (k + 1) (j + 1)
                end
              | _ -> ()
            in
            Telemetry.span_enter Span.Place;
            place writes 0 0;
            Telemetry.span_exit Span.Place
          end)
        per_class;
      if lat_on && !lat_fresh + !lat_over > 0 then
        lat_groups :=
          ( Telemetry.lat_vol_slot ~uid:(Flexvol.uid vol)
              ~name:(Flexvol.name vol),
            !lat_fresh,
            !lat_over )
          :: !lat_groups)
    by_vol;
  (* 2. Commit delayed frees (aggregate + volumes) and flush metafiles. *)
  Telemetry.span_enter Span.Activemap_commit;
  Wafl_fault.Crash.point "cp.agg_free_commit";
  let agg_pages, freed_pvbns = Aggregate.commit_frees ?pool aggregate in
  let vol_pages =
    List.fold_left
      (fun acc (vol, _) ->
        Wafl_fault.Crash.point "cp.vol_free_commit";
        acc + Flexvol.commit_frees ?pool vol)
      0 by_vol
  in
  Telemetry.span_exit Span.Activemap_commit;
  (* 3. Device I/O per range: this CP's allocations (and trims) split by
        range, in range-local coordinates and allocation order. *)
  let batches = List.rev !batches in
  let iter_allocated f =
    List.iter (fun (c, pvbns, n) -> for k = 0 to n - 1 do f c pvbns.(k) done) batches
  in
  let range_of = Aggregate.range_of_pvbn aggregate in
  let by_range iter =
    split ~buckets:(Array.length ranges) (fun emit ->
        iter (fun pvbn ->
            let r = range_of pvbn in
            emit r.Aggregate.index (Aggregate.to_local r pvbn)))
  in
  let locals = by_range (fun f -> iter_allocated (fun _ pvbn -> f pvbn)) in
  let cls =
    match routing with
    | None -> None
    | Some _ ->
      Some
        (split ~buckets:(Array.length ranges) (fun emit ->
             iter_allocated (fun c pvbn -> emit (range_of pvbn).Aggregate.index c)))
  in
  let freed_locals = by_range (fun f -> List.iter f freed_pvbns) in
  let devices =
    Array.to_list
      (Array.mapi
         (fun i r ->
           Wafl_fault.Crash.point "cp.device_flush";
           flush_range r ~cls:(Option.map (fun c -> c.(i)) cls) locals.(i) freed_locals.(i))
         ranges)
  in
  (* 4. CP boundary: batched score updates, cache rebalance. *)
  Wafl_fault.Crash.point "cp.score_refile";
  Write_alloc.cp_finish walloc;
  Wafl_fault.Crash.point "cp.topaa_write";
  (* Persist the integrity sidecars for every page sealed this CP and
     advance the committed generation — the durable close of the CP when
     the pagestores are file-mapped (a no-op otherwise). *)
  Wafl_bitmap.Integrity.cp_commit ();
  let picks_after, replenishes_after, cache_work_after, score_error_max =
    cache_totals ranges by_vol
  in
  let device_time_us =
    List.fold_left
      (fun acc (d : device_report) -> Float.max acc d.device_time_us)
      0.0 devices
  in
  let fault_totals =
    List.fold_left
      (fun acc (d : device_report) ->
        match (acc, d.fault) with
        | _, None -> acc
        | None, fs -> fs
        | Some t, Some fs -> Some (Wafl_fault.Fault.add_stats t fs))
      None devices
  in
  let report =
    {
      ops;
      blocks_allocated = !placed;
      pvbns_freed = List.length freed_pvbns;
      vvbns_freed = !vvbn_frees;
      agg_metafile_pages = agg_pages;
      vol_metafile_pages = vol_pages;
      devices;
      device_time_us;
      cache_work = cache_work_after - cache_work_before;
      alloc_candidates = Write_alloc.candidates_scanned walloc - candidates_before;
      fault_totals;
    }
  in
  (* 5. Telemetry: CP-granularity counters and the per-CP time-series row
     (the hot allocation path above only touched the zero-cost trace
     emitters). *)
  (* Assign modeled latencies to this CP's ops first, so the time-series
     row below reads quantiles that include this CP.  device_time_us
     already carries the injected spike penalty; spike_us is passed
     separately so exemplar blame can tell a faulted flush from a merely
     slow one. *)
  if lat_on then
    Telemetry.lat_cp_record
      ~groups:(List.rev !lat_groups)
      ~pages:(agg_pages + vol_pages)
      ~cache_work:report.cache_work
      ~candidates:report.alloc_candidates
      ~device_us:device_time_us
      ~spike_us:
        (match fault_totals with
        | Some fs -> fs.Wafl_fault.Fault.penalty_us
        | None -> 0.0)
      ~pick_ns:(Telemetry.span_total_ns Span.Pick - pick_ns0)
      ~harvest_ns:(Telemetry.span_total_ns Span.Harvest - harvest_ns0);
  Telemetry.trace_free_commit ~space:(-1) ~freed:report.pvbns_freed ~pages:agg_pages;
  Telemetry.trace_cp_end ~ops ~blocks:report.blocks_allocated ~freed:report.pvbns_freed
    ~pages:(agg_pages + vol_pages) ~device_us:device_time_us;
  Telemetry.incr "cp.count";
  Telemetry.add "cp.ops" ops;
  Telemetry.add "cp.blocks_allocated" report.blocks_allocated;
  Telemetry.add "cp.pvbns_freed" report.pvbns_freed;
  Telemetry.add "cp.vvbns_freed" report.vvbns_freed;
  Telemetry.add "metafile.agg_pages_written" agg_pages;
  Telemetry.add "metafile.vol_pages_written" vol_pages;
  Telemetry.add "cache.picks" (picks_after - picks_before);
  Telemetry.add "cache.replenishes" (replenishes_after - replenishes_before);
  Telemetry.add "cache.work" report.cache_work;
  Telemetry.add "alloc.candidates_scanned" report.alloc_candidates;
  Telemetry.max_gauge "cache.hbps.score_error_max" score_error_max;
  Telemetry.observe "cp.device_us" (int_of_float device_time_us);
  Telemetry.observe "cp.blocks" report.blocks_allocated;
  (* One time-series row per CP, the only per-CP record: the paper's
     time-resolved axes (search cost per block, AA score distribution,
     HBPS error bound, free-space fragmentation), allocator/fault health,
     and every count of this CP's report.  The row thunk — and in
     particular the whole-bitmap free-run scan and the score sort — only
     runs when telemetry is installed. *)
  Telemetry.sample ~columns:(fun () -> timeseries_columns)
    (fun () ->
      let fl = float_of_int in
      let cp_idx =
        match Telemetry.installed () with
        | Some tel -> Tracer.current_cp (Telemetry.tracer tel)
        | None -> 0
      in
      let ring_hw =
        match Telemetry.installed () with
        | Some tel ->
          Registry.value (Registry.gauge (Telemetry.registry tel) "write_alloc.ring_high_water")
        | None -> 0.0
      in
      let search_ns =
        Telemetry.span_total_ns Span.Pick - pick_ns0
        + (Telemetry.span_total_ns Span.Harvest - harvest_ns0)
      in
      let free = Aggregate.free_blocks aggregate in
      let total = Aggregate.total_blocks aggregate in
      let free_runs, largest_run = Aggregate.free_run_stats aggregate in
      (* fragmentation: how little of the free space the largest single
         run covers — 0.0 = one contiguous run, -> 1.0 as it shatters *)
      let frag = if free = 0 then 0.0 else 1.0 -. (fl largest_run /. fl free) in
      let scores =
        Array.concat
          (Array.to_list (Array.map (fun (r : Aggregate.range) -> r.Aggregate.scores) ranges))
      in
      Array.sort compare scores;
      let decile k =
        let n = Array.length scores in
        if n = 0 then 0.0 else fl scores.(k * (n - 1) / 10)
      in
      let ft sel = match report.fault_totals with None -> 0 | Some fs -> sel fs in
      let scrub_count name =
        match Telemetry.installed () with
        | Some tel -> fl (Registry.count (Registry.counter (Telemetry.registry tel) name))
        | None -> 0.0
      in
      (* SSD health: cumulative write amplification and peak wear over the
         aggregate's FTLs, plus this CP's relocations per write stream
         (streams beyond 3 fold into the s3 cell). *)
      let ssd_host = ref 0 and ssd_dev = ref 0 and ssd_wear = ref 0 in
      Array.iter
        (fun (r : Aggregate.range) ->
          match r.Aggregate.device with
          | Aggregate.Ssd_sim ftl ->
            let s = Ftl.stats ftl in
            ssd_host := !ssd_host + s.Ftl.host_pages_written;
            ssd_dev := !ssd_dev + s.Ftl.device_pages_written;
            ssd_wear := max !ssd_wear (snd (Ftl.wear_spread ftl))
          | _ -> ())
        ranges;
      let ssd_wa = if !ssd_host = 0 then 1.0 else fl !ssd_dev /. fl !ssd_host in
      (* Per-range device work in four slots; ranges past the fourth fold
         into the last one, like the streams above. *)
      let reloc_s = Array.make 4 0 in
      let range_blocks = Array.make 4 0
      and range_us = Array.make 4 0.0
      and range_tetrises = Array.make 4 0 in
      List.iter
        (fun (d : device_report) ->
          Array.iteri
            (fun s (st : Ftl.stats) ->
              let s = min s 3 in
              reloc_s.(s) <- reloc_s.(s) + st.Ftl.relocated_pages)
            d.ssd_stream_stats;
          let r = min d.range_index 3 in
          range_blocks.(r) <- range_blocks.(r) + d.blocks_written;
          range_us.(r) <- range_us.(r) +. d.device_time_us;
          range_tetrises.(r) <- range_tetrises.(r) + d.tetrises)
        report.devices;
      (* Modeled latency quantiles (all zeros when no recorder is live). *)
      let lat_all_50, lat_all_99, lat_all_999 = Telemetry.lat_quantiles_ms ~vol:(-1) in
      let lat_v0_50, lat_v0_99, lat_v0_999 = Telemetry.lat_quantiles_ms ~vol:0 in
      let lat_v1_50, lat_v1_99, lat_v1_999 = Telemetry.lat_quantiles_ms ~vol:1 in
      let lat_v2_50, lat_v2_99, lat_v2_999 = Telemetry.lat_quantiles_ms ~vol:2 in
      let lat_v3_50, lat_v3_99, lat_v3_999 = Telemetry.lat_quantiles_ms ~vol:3 in
      [|
        fl cp_idx;
        fl ops;
        fl report.blocks_allocated;
        fl report.pvbns_freed;
        fl (picks_after - picks_before);
        fl (replenishes_after - replenishes_before);
        fl search_ns /. fl (max 1 report.blocks_allocated);
        fl (Telemetry.now_ns () - cp_t0);
        score_error_max;
        decile 1; decile 2; decile 3; decile 4; decile 5;
        decile 6; decile 7; decile 8; decile 9;
        fl free;
        fl free /. fl total;
        fl free_runs;
        fl largest_run;
        frag;
        ring_hw;
        device_time_us;
        fl (ft (fun fs -> fs.Wafl_fault.Fault.injected_transient));
        fl (ft (fun fs -> fs.Wafl_fault.Fault.torn));
        fl (ft (fun fs -> fs.Wafl_fault.Fault.failed));
        fl (ft (fun fs -> fs.Wafl_fault.Fault.retries));
        scrub_count "scrub.pages_verified";
        scrub_count "scrub.bad_pages";
        ssd_wa;
        fl reloc_s.(0);
        fl reloc_s.(1);
        fl reloc_s.(2);
        fl reloc_s.(3);
        fl !ssd_wear;
        lat_all_50; lat_all_99; lat_all_999;
        lat_v0_50; lat_v0_99; lat_v0_999;
        lat_v1_50; lat_v1_99; lat_v1_999;
        lat_v2_50; lat_v2_99; lat_v2_999;
        lat_v3_50; lat_v3_99; lat_v3_999;
        fl report.vvbns_freed;
        fl agg_pages;
        fl vol_pages;
        fl report.cache_work;
        fl report.alloc_candidates;
        fl (ft (fun fs -> fs.Wafl_fault.Fault.retries_ok));
        (match report.fault_totals with None -> 0.0 | Some fs -> fs.Wafl_fault.Fault.penalty_us);
        fl range_blocks.(0); range_us.(0); fl range_tetrises.(0);
        fl range_blocks.(1); range_us.(1); fl range_tetrises.(1);
        fl range_blocks.(2); range_us.(2); fl range_tetrises.(2);
        fl range_blocks.(3); range_us.(3); fl range_tetrises.(3);
      |]);
  (* Tick the temperature clock after the CP's placements: lifespans are
     measured in whole CPs between a birth and the overwrite killing it. *)
  (match temp with Some tm -> Temperature.advance_cp tm | None -> ());
  Telemetry.span_exit Span.Cp;
  report
