(* What the benchmark reads around each [Fs.run_cp]: the program's own
   counters (exact, so they are compared across legs), the GC's, and — on
   a traced leg — the per-layer deltas of the installed [Span] totals. *)

open Wafl_core
open Wafl_telemetry

(* --- exact per-CP counts --- *)

(* Indices into a CP's count vector.  Every one is a pure function of the
   seed and the CP's position in the loop: nothing here depends on time. *)
let ops = 0 (* client ops in the batch *)
let staged = 1 (* distinct blocks staged when the CP started *)
let blocks = 2 (* blocks placed *)
let freed = 3 (* physical blocks freed *)
let candidates = 4 (* bitmap positions scanned by harvests *)
let words = 5 (* 32-bit bitmap words read by harvests *)
let harvested = 6 (* free VBNs harvested into rings *)
let picks = 7 (* AA cache picks, physical + virtual *)
let replenishes = 8
let cache_work = 9
let aas_taken = 10 (* physical AAs taken *)
let score_sum = 11 (* their free counts at take time *)
let full_stripes = 12
let partial_stripes = 13
let chains = 14
let parity_reads = 15
let agg_pages = 16 (* metafile pages written *)
let vol_pages = 17
let ssd_host = 18 (* FTL host page writes *)
let ssd_device = 19 (* FTL media page writes, relocations included *)
let ssd_relocs = 20
let ssd_erases = 21
let n_counts = 22

let count_names =
  [| "ops"; "staged"; "blocks"; "freed"; "candidates"; "words"; "harvested"; "picks";
     "replenishes"; "cache_work"; "aas_taken"; "score_sum"; "full_stripes";
     "partial_stripes"; "chains"; "parity_reads"; "agg_pages"; "vol_pages"; "ssd_host";
     "ssd_device"; "ssd_relocs"; "ssd_erases" |]

(* Cumulative counters that live on the system rather than in the CP
   report: the write allocator's and the AA caches'. *)
type cumulative = {
  c_candidates : int;
  c_words : int;
  c_harvested : int;
  c_picks : int;
  c_replenishes : int;
  c_work : int;
  c_taken : int;
  c_score_sum : int;
  c_err_max : float;
}

let cumulative fs =
  let walloc = Fs.write_alloc fs in
  let picks = ref 0 and repl = ref 0 and work = ref 0 and err = ref 0.0 in
  let tally = function
    | None -> ()
    | Some c ->
      let s = Wafl_aacache.Cache.stats c in
      picks := !picks + s.Wafl_aacache.Cache.picks;
      repl := !repl + s.Wafl_aacache.Cache.replenishes;
      work := !work + s.Wafl_aacache.Cache.work;
      err := Float.max !err s.Wafl_aacache.Cache.score_error_max
  in
  Array.iter (fun (r : Aggregate.range) -> tally r.Aggregate.cache)
    (Aggregate.ranges (Fs.aggregate fs));
  Array.iter (fun v -> tally (Flexvol.cache v)) (Fs.vols fs);
  let taken, sum = Write_alloc.phys_take_trace walloc in
  {
    c_candidates = Write_alloc.candidates_scanned walloc;
    c_words = Write_alloc.words_scanned walloc;
    c_harvested = Write_alloc.vbns_harvested walloc;
    c_picks = !picks;
    c_replenishes = !repl;
    c_work = !work;
    c_taken = taken;
    c_score_sum = sum;
    c_err_max = !err;
  }

let counts ~ops:n_ops ~staged:n_staged ~before ~after (r : Cp.report) =
  let c = Array.make n_counts 0 in
  c.(ops) <- n_ops;
  c.(staged) <- n_staged;
  c.(blocks) <- r.Cp.blocks_allocated;
  c.(freed) <- r.Cp.pvbns_freed;
  c.(candidates) <- after.c_candidates - before.c_candidates;
  c.(words) <- after.c_words - before.c_words;
  c.(harvested) <- after.c_harvested - before.c_harvested;
  c.(picks) <- after.c_picks - before.c_picks;
  c.(replenishes) <- after.c_replenishes - before.c_replenishes;
  c.(cache_work) <- after.c_work - before.c_work;
  c.(aas_taken) <- after.c_taken - before.c_taken;
  c.(score_sum) <- after.c_score_sum - before.c_score_sum;
  c.(agg_pages) <- r.Cp.agg_metafile_pages;
  c.(vol_pages) <- r.Cp.vol_metafile_pages;
  List.iter
    (fun (d : Cp.device_report) ->
      c.(full_stripes) <- c.(full_stripes) + d.Cp.full_stripes;
      c.(partial_stripes) <- c.(partial_stripes) + d.Cp.partial_stripes;
      c.(chains) <- c.(chains) + d.Cp.chains;
      c.(parity_reads) <- c.(parity_reads) + d.Cp.parity_reads;
      match d.Cp.ssd_stats with
      | None -> ()
      | Some s ->
        c.(ssd_host) <- c.(ssd_host) + s.Wafl_device.Ftl.host_pages_written;
        c.(ssd_device) <- c.(ssd_device) + s.Wafl_device.Ftl.device_pages_written;
        c.(ssd_relocs) <- c.(ssd_relocs) + s.Wafl_device.Ftl.relocated_pages;
        c.(ssd_erases) <- c.(ssd_erases) + s.Wafl_device.Ftl.erases)
    r.Cp.devices;
  c

(* --- traced per-layer span deltas --- *)

(* The program's CP-path spans.  [Pick], [Harvest], [Device_flush] and
   [Activemap_commit] are disjoint children of the CP; [Tetris_write] runs
   inside [Device_flush] and [Bit_clear] inside [Activemap_commit]. *)
let layer_kinds =
  [| Span.Pick; Span.Harvest; Span.Tetris_write; Span.Device_flush; Span.Activemap_commit;
     Span.Bit_clear |]

let pick = 0
let harvest = 1
let tetris = 2
let device_flush = 3
let activemap = 4
let bit_clear = 5

let span_totals () =
  match Telemetry.installed () with
  | None -> Array.make (Array.length layer_kinds) 0
  | Some tel -> Array.map (Span.total_ns (Telemetry.spans tel)) layer_kinds

let rebuild_total () = Telemetry.span_total_ns Span.Mount_rebuild

(* CP wall the four disjoint child spans cover. *)
let spanned l = l.(pick) + l.(harvest) + l.(device_flush) + l.(activemap)

(* --- metafile page reads (mount + lazy rebuild cost) --- *)

let page_reads fs =
  let reads mf = (Wafl_bitmap.Metafile.stats mf).Wafl_bitmap.Metafile.page_reads in
  Array.fold_left
    (fun acc v -> acc + reads (Flexvol.metafile v))
    (reads (Aggregate.metafile (Fs.aggregate fs)))
    (Fs.vols fs)

(* --- what one leg records --- *)

type cp_rec = {
  leg : int;
  idx : int;
  start_ns : int;
  after_mount : bool;  (* first CP on a freshly mounted system *)
  traced : bool;  (* ran with the telemetry instance installed *)
  stage_ns : int;
  cp_ns : int;
  counts : int array;  (* Probe count vector *)
  device_us : float;  (* modeled *)
  err_max : float;  (* HBPS score-error bound after the CP *)
  layers : int array;  (* span deltas, Probe.layer_kinds order; zeros untraced *)
  minor_words : float;
  major_collections : int;
  probe_ns : int;  (* host-speed probe run right after the CP ([Speed]) *)
  mutable scale : float;  (* [Speed] factor; every duration above is CPU ns *)
}

type mount_rec = {
  m_idx : int;
  m_start_ns : int;
  snapshot_ns : int;
  mount_ns : int;
  first_cp_ns : int;
  rebuild_ns : int;  (* mount.rebuild span; 0 untraced *)
  topaa_blocks_read : int;
  pages_scanned : int;  (* metafile page reads: mount + first-CP lazy rebuild *)
  ops_replayed : int;
  ready_us : float;  (* modeled *)
  in_path : bool;  (* a client failover, rather than a drill on a side copy *)
  mutable m_scale : float;
}

(* --- process --- *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan
