(* cpbench: the repository benchmark.

   One workload per invocation, a closed loop from a single client on one
   domain: stage a CP's batch through [Fs.stage_write], call [Fs.run_cp],
   and generate the next batch only after the CP returns.  Each leg runs
   on its own system, freshly built and aged from [--seed]:

   - leg 0 runs only the workload's deterministic prefix of CPs: it warms
     the process (heap, caches) and is a third repeat for the checks;
   - legs 1 and 2 each run the prefix and then on for [--seconds]/2.
     With [--trace 0] both are untraced and the end-to-end metrics pool
     them.  With [--trace 1], leg 2 installs a [Telemetry] instance
     (spans on, event tracing off, the CPU clock below) on every other CP and
     on every mount event; per-layer metrics come from its traced CPs,
     and [telemetry.overhead_frac] compares them with its untraced ones,
     which ran interleaved on the same host.

   The exact counters over the prefix must agree bit for bit across the
   three legs — so also between untraced and traced runs.  Every leg ends
   with [Iron.check] and free-count cross-checks.  Every duration is CPU
   time of the benchmark's thread, rescaled by the [Speed] probe to a host
   of fixed speed; the summary also prints the unscaled figures.  The
   last stdout line is one JSON object: correct / attempted / failed /
   metrics. *)

open Wafl_core
open Wafl_telemetry
module W = Workloads
module P = Probe
open Probe

(* Durations are read on the thread's CPU clock: ns resolution and
   monotonic like the wall clock, but blind to the time the process waits
   for a CPU, which on a shared host swamps the program's own cost.  The
   wall clock only bounds how long a leg runs. *)
external now_ns : unit -> int = "cpbench_thread_cpu_ns" [@@noalloc]

let wall_ns () = Int64.to_int (Monotonic_clock.now ())
let fl = float_of_int

(* --- arguments --- *)

let usage () =
  prerr_endline
    "usage: cpbench --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: hdd_overwrite ssd_segregated agnostic_failover";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; go rest
    | "--trace" :: v :: rest -> trace := (int_of_string v <> 0); go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  match W.find !workload with
  | None -> usage ()
  | Some w -> (w, !seed, !seconds, !trace)

type leg = {
  cps : cp_rec list;  (* in order; a CP's [idx] is its position *)
  mounts : mount_rec list;
  fingerprint : string;  (* exact state over the deterministic prefix *)
  findings : int;  (* correctness violations found after the leg *)
  attempted : int;  (* block writes staged *)
  not_placed : int;
}

(* --- setup --- *)

type system = { fs : Fs.t; vol : Flexvol.t; gen : W.gen }

let setup (w : W.t) seed =
  Gc.full_major ();
  let f0 = Speed.burst now_ns in
  let t0 = now_ns () in
  let fs = Fs.create (w.W.config seed) in
  let vol = Fs.vol fs W.vol_name in
  let rng = Wafl_util.Rng.split (Fs.rng fs) in
  let working_set = w.W.age fs vol rng in
  let gen = W.generator w ~working_set ~rng:(Wafl_util.Rng.split rng) in
  let cpu_ns = now_ns () - t0 in
  let scale = (f0 +. Speed.burst now_ns) /. 2.0 in
  let agg = Fs.aggregate fs in
  let print =
    Printf.sprintf "ws=%d free=%d cps=%d pages=%d" working_set (Aggregate.free_blocks agg)
      (Fs.cps_completed fs) (Fs.total_metafile_pages_written fs)
  in
  ({ fs; vol; gen }, (fl cpu_ns, scale), print)

(* --- the closed loop --- *)

let stage fs vol (b : W.batch) lo hi =
  let t0 = now_ns () in
  for i = lo to hi - 1 do
    Fs.stage_write fs ~vol ~file:b.W.files.(i) ~offset:b.W.offsets.(i)
  done;
  now_ns () - t0

(* One timed CP on [fs], with everything the probes read around it. *)
let timed_cp fs ~leg ~idx ~ops ~after_mount ~stage_ns =
  let traced = Telemetry.is_active () in
  let staged = Fs.staged_count fs in
  let before = P.cumulative fs in
  let l0 = P.span_totals () in
  let gc0 = Gc.quick_stat () in
  let t0 = now_ns () in
  let report = Fs.run_cp fs in
  let t1 = now_ns () in
  let gc1 = Gc.quick_stat () in
  let l1 = P.span_totals () in
  let after = P.cumulative fs in
  let probe_ns = Speed.probe now_ns in
  {
    leg;
    idx;
    start_ns = t0;
    after_mount;
    traced;
    stage_ns;
    cp_ns = t1 - t0;
    counts = P.counts ~ops ~staged ~before ~after report;
    device_us = report.Cp.device_time_us;
    err_max = after.P.c_err_max;
    layers = Array.map2 ( - ) l1 l0;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    probe_ns;
    scale = 1.0;
  }

(* Snapshot [fs] mid-batch and mount the image (TopAA seeding, lazy
   rebuild), staging the rest of the batch on the mounted system. *)
let snapshot_and_mount fs batch =
  let t0 = now_ns () in
  let image = Mount.snapshot fs in
  let t1 = now_ns () in
  let rb0 = P.rebuild_total () in
  let fs', timing = Mount.mount image ~with_topaa:true ~lazy_rebuild:true in
  let t2 = now_ns () in
  let rebuild_ns = P.rebuild_total () - rb0 in
  let vol' = Fs.vol fs' W.vol_name in
  let stage_ns = stage fs' vol' batch batch.W.split batch.W.len in
  (fs', vol', timing, t0, t1 - t0, t2 - t1, rebuild_ns, stage_ns)

let mount_rec ~idx ~start ~snap ~mount ~first_cp ~rebuild ~in_path fs'
    (timing : Mount.timing) =
  {
    m_idx = idx;
    m_start_ns = start;
    snapshot_ns = snap;
    mount_ns = mount;
    first_cp_ns = first_cp;
    rebuild_ns = rebuild;
    topaa_blocks_read = timing.Mount.topaa_blocks_read;
    pages_scanned = P.page_reads fs';
    ops_replayed = timing.Mount.ops_replayed;
    ready_us = timing.Mount.ready_us;
    in_path;
    m_scale = 1.0;
  }

(* Exact summary of a leg's first [det_cps] CPs and its mounts among
   them: counts, modeled device time, the score-error bound, mount counts
   and the free count at the end of the prefix. *)
let fingerprint (w : W.t) cps mounts ~free_at_prefix =
  let prefix = List.filter (fun c -> c.idx < w.W.det_cps) cps in
  let sums = Array.make P.n_counts 0 in
  let dev = ref 0.0 and err = ref 0.0 in
  List.iter
    (fun c ->
      Array.iteri (fun i v -> sums.(i) <- sums.(i) + v) c.counts;
      dev := !dev +. c.device_us;
      err := Float.max !err c.err_max)
    prefix;
  let b = Buffer.create 256 in
  Array.iteri (fun i v -> Printf.bprintf b "%s=%d " P.count_names.(i) v) sums;
  Printf.bprintf b "device_us=%h err_max=%h free=%d" !dev !err free_at_prefix;
  List.iter
    (fun m ->
      if m.m_idx < w.W.det_cps then
        Printf.bprintf b " mount@%d=%d/%d/%d/%h" m.m_idx m.topaa_blocks_read m.pages_scanned
          m.ops_replayed m.ready_us)
    mounts;
  Buffer.contents b

let run_leg (w : W.t) sys ~leg ~traced ~leg_ns =
  let tel =
    if traced then Some (Telemetry.create ~clock:now_ns ~tracing:false ~series_capacity:64 ())
    else None
  in
  let batch = W.make_batch w in
  let ops = W.ops_per_batch w in
  let fs = ref sys.fs and vol = ref sys.vol in
  let agg_free () = Aggregate.free_blocks (Fs.aggregate !fs) in
  let tracked_free = ref (agg_free ()) in
  let free_at_prefix = ref (-1) in
  let cps = ref [] and mounts = ref [] in
  let attempted = ref 0 and not_placed = ref 0 in
  let record c =
    cps := c :: !cps;
    attempted := !attempted + batch.W.len;
    not_placed := !not_placed + c.counts.(P.staged) - c.counts.(P.blocks);
    tracked_free := !tracked_free + c.counts.(P.freed) - c.counts.(P.blocks);
    if c.idx = w.W.det_cps - 1 then free_at_prefix := agg_free ()
  in
  let t_start = wall_ns () in
  let idx = ref 0 in
  while !idx < w.W.det_cps || wall_ns () - t_start < leg_ns do
    let k = !idx in
    let mount_due = k > 0 && k mod w.W.mount_every = 0 in
    (match tel with
    | Some t when k mod 2 = 1 || mount_due -> Telemetry.install t
    | _ -> Telemetry.uninstall ());
    W.fill sys.gen batch;
    if not mount_due then begin
      let stage_ns = stage !fs !vol batch 0 batch.W.len in
      record (timed_cp !fs ~leg ~idx:k ~ops ~after_mount:false ~stage_ns)
    end
    else begin
      (* A mount event starts from a finished major GC cycle, and the
         system it leaves behind is collected before the next client CP:
         here both systems share one heap, as a failover pair would not.
         Neither collection is inside a timed interval. *)
      Gc.major ();
      let s1 = stage !fs !vol batch 0 batch.W.split in
      let fs', vol', timing, start, snap, mount, rebuild, s2 =
        snapshot_and_mount !fs batch
      in
      match w.W.mount_mode with
      | W.Failover ->
        let c = timed_cp fs' ~leg ~idx:k ~ops ~after_mount:true ~stage_ns:(s1 + s2) in
        record c;
        mounts :=
          mount_rec ~idx:k ~start ~snap ~mount ~first_cp:c.cp_ns ~rebuild ~in_path:true
            fs' timing
          :: !mounts;
        fs := fs';
        vol := vol';
        Gc.major ()
      | W.Drill ->
        (* the side system's first CP is timed but is not a client CP *)
        let t0 = now_ns () in
        ignore (Fs.run_cp fs');
        let first_cp = now_ns () - t0 in
        mounts :=
          mount_rec ~idx:k ~start ~snap ~mount ~first_cp ~rebuild ~in_path:false fs'
            timing
          :: !mounts;
        Gc.major ();
        let s2 = stage !fs !vol batch batch.W.split batch.W.len in
        record (timed_cp !fs ~leg ~idx:k ~ops ~after_mount:false ~stage_ns:(s1 + s2))
    end;
    incr idx
  done;
  Telemetry.uninstall ();
  (* correctness: Iron, and three views of the free count that must agree:
     the benchmark's own tally (start - placed + freed), the bitmap, and
     the sum of the allocator's per-AA free counts (Iron's pass has made
     any lazily mounted range exact again) *)
  let fs = !fs in
  let findings = Iron.check fs in
  List.iter (fun f -> Format.eprintf "iron: %a@." Iron.pp_finding f) findings;
  let total = Array.fold_left ( + ) 0 in
  let agg = Fs.aggregate fs in
  let bitmap = Aggregate.free_blocks agg in
  let scored =
    Array.fold_left
      (fun acc (r : Aggregate.range) -> acc + total r.Aggregate.scores)
      0 (Aggregate.ranges agg)
  in
  let mismatch = ref 0 in
  if bitmap <> !tracked_free || scored <> bitmap then begin
    Printf.eprintf "free-count mismatch: tally=%d bitmap=%d scores=%d\n" !tracked_free bitmap
      scored;
    incr mismatch
  end;
  Array.iter
    (fun v ->
      let bitmap = Flexvol.free_blocks v and scored = total (Flexvol.scores v) in
      if scored <> bitmap then begin
        Printf.eprintf "volume %s free-count mismatch: bitmap=%d scores=%d\n" (Flexvol.name v)
          bitmap scored;
        incr mismatch
      end)
    (Fs.vols fs);
  let cps = List.rev !cps and mounts = List.rev !mounts in
  let factors = Speed.factors (Array.of_list (List.map (fun c -> c.probe_ns) cps)) in
  List.iter (fun c -> c.scale <- factors.(c.idx)) cps;
  List.iter (fun mr -> mr.m_scale <- factors.(mr.m_idx)) mounts;
  {
    cps;
    mounts;
    fingerprint = fingerprint w cps mounts ~free_at_prefix:!free_at_prefix;
    findings = List.length findings + !mismatch;
    attempted = !attempted;
    not_placed = !not_placed;
  }

(* --- statistics --- *)

(* Nearest-rank quantile; nan on no samples. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. fl n)) - 1)))

let median = quantile 0.5
let ratio a b = if b = 0.0 then 0.0 else a /. b
let sum_int f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let sum_float f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs
let sum_count cps i = sum_int (fun c -> c.counts.(i)) cps

(* Durations are read through a clock view: [Normalized] applies each
   sample's [Speed] factor, [Raw] leaves CPU ns as measured. *)
type view = Normalized | Raw

let cp_time view c x = match view with Raw -> fl x | Normalized -> fl x *. c.scale
let mount_time view mr x = match view with Raw -> fl x | Normalized -> fl x *. mr.m_scale

(* Steady-state CP wall: every main-loop CP except the first one after a
   mount. *)
let steady_cp_ms view cps =
  List.filter_map
    (fun c -> if c.after_mount then None else Some (cp_time view c c.cp_ns /. 1e6))
    cps

(* Tail CP wall: the median, over stretches of [window] consecutive
   steady CPs of a leg, of each stretch's p99.  A pooled p99 sits on the
   few slowest CPs of a whole run and moves with them; this one reads the
   tail the loop shows throughout. *)
let window = 100

let windowed_p99 view legs =
  let per_leg l =
    let a = Array.of_list (steady_cp_ms view l.cps) in
    let n = Array.length a in
    let k = max 1 (n / window) in
    List.init k (fun i ->
        let lo = i * n / k and hi = (i + 1) * n / k in
        quantile 0.99 (Array.to_list (Array.sub a lo (hi - lo))))
  in
  let ws = List.concat_map per_leg legs in
  (median ws, List.length ws)

let failover_ms view mounts =
  List.map
    (fun mr -> mount_time view mr (mr.snapshot_ns + mr.mount_ns + mr.first_cp_ns) /. 1e6)
    mounts

(* --- metric sets --- *)

type metric = { name : string; value : float; unit_ : string; note : string }

let m ?(note = "") name unit_ value = { name; value; unit_; note }

(* Count metrics are computed over the deterministic prefix, so they are
   exact for a seed whatever the host's speed. *)
let prefix (w : W.t) leg = List.filter (fun c -> c.idx < w.W.det_cps) leg.cps
let prefix_mounts (w : W.t) leg = List.filter (fun mr -> mr.m_idx < w.W.det_cps) leg.mounts

let aa_capacity sys =
  let r = (Aggregate.ranges (Fs.aggregate sys.fs)).(0) in
  Wafl_aa.Topology.full_aa_capacity r.Aggregate.topology

let modeled (w : W.t) leg =
  let cps = prefix w leg in
  let blocks = fl (sum_count cps P.blocks) in
  let host = sum_count cps P.ssd_host in
  let stripes = sum_count cps P.full_stripes + sum_count cps P.partial_stripes in
  [
    m "modeled_metafile_pages_per_kblock" "pages/kblock"
      (1000.0 *. ratio (fl (sum_count cps P.agg_pages + sum_count cps P.vol_pages)) blocks);
    m "modeled_write_amp" "ratio"
      ~note:"FTL media page writes per host page write; 1 where no FTL"
      (if host = 0 then 1.0 else fl (sum_count cps P.ssd_device) /. fl host);
    m "modeled_full_stripe_frac" "fraction" ~note:"RAID ranges only; 0 without RAID"
      (ratio (fl (sum_count cps P.full_stripes)) (fl stripes));
    m "modeled_device_us_per_block" "us" (ratio (sum_float (fun c -> c.device_us) cps) blocks);
    m "modeled_mount_ready_us" "us" ~note:"median over the prefix's mounts"
      (median (List.map (fun mr -> mr.ready_us) (prefix_mounts w leg)));
  ]

let end_to_end view legs ~setups =
  let cps = List.concat_map (fun l -> l.cps) legs in
  let p99, windows = windowed_p99 view legs in
  let mounts = List.concat_map (fun l -> l.mounts) legs in
  let steady = steady_cp_ms view cps in
  let ops = sum_count cps P.ops in
  let blocks = sum_count cps P.blocks in
  let cp_ns = sum_float (fun c -> cp_time view c c.cp_ns) cps in
  (* the client waits for staging, its CPs and its own failovers; drills
     run on a side copy *)
  let client_ns =
    sum_float (fun c -> cp_time view c (c.stage_ns + c.cp_ns)) cps
    +. sum_float
         (fun mr -> if mr.in_path then mount_time view mr (mr.snapshot_ns + mr.mount_ns) else 0.0)
         mounts
  in
  let setup_s =
    List.map (fun (ns, f) -> (match view with Raw -> ns | Normalized -> ns *. f) /. 1e9) setups
  in
  let n = List.length steady in
  [
    m "ops_per_s" "1/s" (fl ops /. (client_ns /. 1e9))
      ~note:(Printf.sprintf "%d ops over %.2f s" ops (client_ns /. 1e9));
    m "cp_ns_per_block" "ns" (ratio cp_ns (fl blocks))
      ~note:(Printf.sprintf "%d CPs, %d blocks" (List.length cps) blocks);
    m "cp_wall_ms_p50" "ms" (median steady) ~note:(Printf.sprintf "n=%d" n);
    m "cp_wall_ms_p99" "ms" p99
      ~note:
        (Printf.sprintf "median p99 of %d windows of ~%d CPs; pooled p99 %.4g" windows window
           (quantile 0.99 steady));
    m "failover_ms_p50" "ms" (median (failover_ms view mounts))
      ~note:(Printf.sprintf "n=%d; snapshot + mount + first CP" (List.length mounts));
    m "setup_s" "s" (median setup_s)
      ~note:(Printf.sprintf "median of %d agings" (List.length setup_s));
    m "peak_rss_mb" "MB" (P.peak_rss_mb ()) ~note:"VmHWM";
  ]

let per_layer (w : W.t) ~aa_cap ~untraced leg =
  let view = Normalized in
  let cps = List.filter (fun c -> c.traced) leg.cps in
  let blocks = fl (sum_count cps P.blocks) in
  let t c x = cp_time view c x in
  let cp_ns = sum_float (fun c -> t c c.cp_ns) cps in
  let layer i = sum_float (fun c -> t c c.layers.(i)) cps in
  let unspanned = cp_ns -. sum_float (fun c -> t c (P.spanned c.layers)) cps in
  let per_block x = ratio x blocks in
  let stage_ns = sum_float (fun c -> t c c.stage_ns) cps in
  (* counts over the exact prefix *)
  let pc = prefix w leg in
  let pblocks = fl (sum_count pc P.blocks) in
  let pcount i = fl (sum_count pc i) in
  let per_k i = 1000.0 *. ratio (pcount i) pblocks in
  let pmounts = prefix_mounts w leg in
  let per_mount f = ratio (fl (sum_int f pmounts)) (fl (List.length pmounts)) in
  let mounts = leg.mounts in
  let mt f = List.map (fun mr -> mount_time view mr (f mr)) mounts in
  let rebuild_ns = List.fold_left ( +. ) 0.0 (mt (fun mr -> mr.rebuild_ns)) in
  let loop_ns =
    cp_ns +. stage_ns +. List.fold_left ( +. ) 0.0 (mt (fun mr -> mr.snapshot_ns + mr.mount_ns))
  in
  let p50 traced =
    median (steady_cp_ms view (List.filter (fun c -> c.traced = traced) leg.cps))
  in
  (* the runtime's own work, read on the untraced leg *)
  let gc_cps = untraced.cps in
  [
    m "fs.stage_ns_per_op" "ns" (ratio stage_ns (fl (sum_count cps P.ops)));
    m "cp.unspanned_ns_per_block" "ns" (per_block unspanned);
    m "cp.unspanned_frac" "fraction" (ratio unspanned cp_ns);
    m "write_alloc.pick_ns_per_block" "ns" (per_block (layer P.pick));
    m "write_alloc.harvest_ns_per_block" "ns" (per_block (layer P.harvest));
    m "write_alloc.candidates_per_block" "count" (ratio (pcount P.candidates) pblocks);
    m "write_alloc.words_per_block" "count" (ratio (pcount P.words) pblocks);
    m "write_alloc.harvest_yield" "fraction" (ratio (pcount P.harvested) (pcount P.candidates));
    m "aacache.picks_per_kblock" "count" (per_k P.picks);
    m "aacache.replenishes_per_kblock" "count" (per_k P.replenishes);
    m "aacache.work_per_kblock" "count" (per_k P.cache_work);
    m "aacache.chosen_free_frac" "fraction"
      (ratio (pcount P.score_sum) (pcount P.aas_taken *. fl aa_cap));
    m "aacache.hbps_score_error_max" "fraction"
      (List.fold_left (fun acc c -> Float.max acc c.err_max) 0.0 pc);
    m "raid.tetris_frac" "fraction" (ratio (layer P.tetris) cp_ns)
      ~note:(Printf.sprintf "%.1f ns/block" (per_block (layer P.tetris)));
    m "raid.blocks_per_chain" "count" (ratio pblocks (pcount P.chains));
    m "raid.parity_reads_per_kblock" "count" (per_k P.parity_reads);
    m "device.sim_ns_per_block" "ns" (per_block (layer P.device_flush -. layer P.tetris));
    m "device.ssd_relocations_per_kblock" "count" (per_k P.ssd_relocs);
    m "device.ssd_erases_per_kblock" "count" (per_k P.ssd_erases);
    m "bitmap.activemap_commit_ns_per_block" "ns" (per_block (layer P.activemap));
    m "bitmap.bit_clear_ns_per_free" "ns" (ratio (layer P.bit_clear) (fl (sum_count cps P.freed)));
    m "bitmap.metafile_pages_per_kblock" "count"
      (1000.0 *. ratio (pcount P.agg_pages +. pcount P.vol_pages) pblocks);
    m "mount.snapshot_ms" "ms" (median (mt (fun mr -> mr.snapshot_ns)) /. 1e6);
    m "mount.mount_ms" "ms" (median (mt (fun mr -> mr.mount_ns)) /. 1e6);
    m "mount.first_cp_ms" "ms" (median (mt (fun mr -> mr.first_cp_ns)) /. 1e6);
    m "mount.rebuild_ns" "ns" (median (mt (fun mr -> mr.rebuild_ns)));
    m "mount.topaa_blocks_read" "count" (per_mount (fun mr -> mr.topaa_blocks_read));
    m "mount.pages_scanned" "count" (per_mount (fun mr -> mr.pages_scanned));
    m "mount.ops_replayed" "count" (per_mount (fun mr -> mr.ops_replayed));
    m "telemetry.overhead_frac" "fraction" ((p50 true /. p50 false) -. 1.0)
      ~note:
        (Printf.sprintf "traced p50 %.3f ms / untraced %.3f ms, interleaved" (p50 true)
           (p50 false));
    m "telemetry.span_coverage" "fraction"
      (ratio (cp_ns -. unspanned +. rebuild_ns) loop_ns)
      ~note:"client loop time inside program spans";
    m "gc.minor_words_per_block" "count"
      (ratio (sum_float (fun c -> c.minor_words) gc_cps) (fl (sum_count gc_cps P.blocks)));
    m "gc.major_collections_per_kcp" "count"
      (1000.0
      *. ratio (fl (sum_int (fun c -> c.major_collections) gc_cps)) (fl (List.length gc_cps)));
  ]

(* Per-layer p50/p99 over CPs (normalized ns per block), for the human
   summary; the per-CP table holds the raw rows. *)
let layer_quantiles cps =
  let per c x = cp_time Normalized c x /. fl (max 1 c.counts.(P.blocks)) in
  let rows =
    [
      ("stage (ns/op)", fun c -> cp_time Normalized c c.stage_ns /. fl (max 1 c.counts.(P.ops)));
      ("cp", fun c -> per c c.cp_ns);
      ("cp.pick", fun c -> per c c.layers.(P.pick));
      ("cp.harvest", fun c -> per c c.layers.(P.harvest));
      ("cp.device_flush", fun c -> per c c.layers.(P.device_flush));
      ("  cp.tetris_write", fun c -> per c c.layers.(P.tetris));
      ("cp.activemap_commit", fun c -> per c c.layers.(P.activemap));
      ("  bit_clear", fun c -> per c c.layers.(P.bit_clear));
      ("cp unspanned", fun c -> per c (c.cp_ns - P.spanned c.layers));
    ]
  in
  List.map
    (fun (name, f) ->
      let xs = List.map f cps in
      (name, median xs, quantile 0.99 xs))
    rows

(* --- output --- *)

(* All digits, as measured; a non-finite value is not a measurement. *)
let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun mt ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.name (json_float mt.value)
           mt.unit_)
       ms)

let print_metrics title ms =
  Printf.printf "%s\n" title;
  List.iter
    (fun mt -> Printf.printf "  %-38s %16.6g %-12s %s\n" mt.name mt.value mt.unit_ mt.note)
    ms

let () =
  let w, seed, seconds, trace = parse_args () in
  Wafl_bitmap.Pagestore.set_default w.W.backend;
  let leg_ns = int_of_float (seconds *. 1e9 /. 2.0) in
  Printf.printf "cpbench %s seed=%d seconds=%g trace=%d\n%!" w.W.name seed seconds
    (if trace then 1 else 0);
  let sys0, d0, print0 = setup w seed in
  let aa_cap = aa_capacity sys0 in
  let leg0 = run_leg w sys0 ~leg:0 ~traced:false ~leg_ns:0 in
  let sys1, d1, print1 = setup w seed in
  let leg1 = run_leg w sys1 ~leg:1 ~traced:false ~leg_ns in
  let sys2, d2, print2 = setup w seed in
  let leg2 = run_leg w sys2 ~leg:2 ~traced:trace ~leg_ns in
  let setups = [ d0; d1; d2 ] in
  let legs = [ leg0; leg1; leg2 ] in
  (* determinism: the aged state, then the loop prefix, across legs *)
  let drift = ref [] in
  if print1 <> print0 || print2 <> print0 then
    drift := Printf.sprintf "aging differs: %s | %s | %s" print0 print1 print2 :: !drift;
  if List.exists (fun l -> l.fingerprint <> leg0.fingerprint) legs then
    drift :=
      ("loop prefix differs between legs:"
      ^ String.concat "" (List.map (fun l -> "\n  " ^ l.fingerprint) legs))
      :: !drift;
  List.iter (fun d -> Printf.eprintf "determinism: %s\n" d) !drift;
  let findings = sum_int (fun l -> l.findings) legs in
  let attempted = sum_int (fun l -> l.attempted) legs in
  let failed = sum_int (fun l -> l.not_placed) legs + findings in
  let correct = failed = 0 && !drift = [] in
  Printf.printf "aging: %s\n" print0;
  Printf.printf "prefix (%d CPs): %s\n" w.W.det_cps leg0.fingerprint;
  List.iteri
    (fun i l ->
      Printf.printf "leg %d: %d CPs, %d mounts, CP wall p50 %.3f ms (unscaled %.3f ms)\n" i
        (List.length l.cps) (List.length l.mounts)
        (median (steady_cp_ms Normalized l.cps))
        (median (steady_cp_ms Raw l.cps)))
    legs;
  let e2e_legs = if trace then [ leg1 ] else [ leg1; leg2 ] in
  let e2e = end_to_end Normalized e2e_legs ~setups in
  let scope = if trace then "untraced leg 1" else "legs 1 and 2" in
  print_metrics (Printf.sprintf "end-to-end (%s, normalized to the reference speed):" scope) e2e;
  print_metrics
    (Printf.sprintf "end-to-end (%s, CPU time as measured, unscaled):" scope)
    (end_to_end Raw e2e_legs ~setups);
  let modeled = modeled w leg0 in
  print_metrics "modeled (exact for a seed, deterministic prefix):" modeled;
  Printf.printf "correctness: %s (attempted %d block writes, failed %d, failed_frac %g)\n"
    (if correct then "ok" else "VIOLATED")
    attempted failed (ratio (fl failed) (fl attempted));
  let metrics =
    if trace then begin
      let layers = per_layer w ~aa_cap ~untraced:leg1 leg2 in
      let traced_cps = List.filter (fun c -> c.traced) leg2.cps in
      print_metrics "per-layer (traced CPs of leg 2):" layers;
      Printf.printf "per-CP layer distribution (traced CPs of leg 2, ns/block):\n";
      List.iter
        (fun (name, p50, p99) -> Printf.printf "  %-24s p50 %10.1f  p99 %10.1f\n" name p50 p99)
        (layer_quantiles traced_cps);
      let base = Printf.sprintf "cpbench/_out/%s-seed%d" w.W.name seed in
      Trace_out.write ~base ~cps:leg2.cps ~mounts:leg2.mounts ~table:(leg1.cps @ leg2.cps);
      Printf.printf "trace: %s.trace.json  per-CP table: %s.cp.tsv\n" base base;
      layers
    end
    else
      (* modeled figures defined on every workload are gated too; the
         others are printed above *)
      e2e
      @ List.filter
          (fun mt ->
            List.mem mt.name [ "modeled_metafile_pages_per_kblock"; "modeled_write_amp" ])
          modeled
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (json_metrics metrics);
  exit (if correct then 0 else 1)
