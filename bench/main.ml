(* Benchmark harness: one section per paper table/figure plus bechamel
   microbenchmarks of the AA-cache data structures.

   Usage:
     bench/main.exe               run everything at quick scale
     bench/main.exe full          run everything at full scale
     bench/main.exe micro         microbenchmarks only
     bench/main.exe telemetry     telemetry overhead (pick path + end-to-end)
     bench/main.exe alloc [full]  allocation hot path: list queue vs harvest
                                  ring; writes BENCH_alloc.json and asserts
                                  the consume window allocates zero words
     bench/main.exe faults [full] fault-plane overhead on the CP write path:
                                  no plane vs zero-probability hooks vs the
                                  default transient profile
     bench/main.exe par [full]    domain-parallel scan engine: full-scan mount
                                  rebuild + sharded CP at 1/2/4/8 domains vs
                                  serial; writes BENCH_par.json and asserts
                                  bit-identical state and a zero-allocation
                                  consume window under an installed pool
     bench/main.exe scrub        persisted-state integrity: asserts the sealed
                                  consume window allocates zero words and CP
                                  sealing costs <5%, injects bit-rot and a
                                  lost write, scrub-heals, and verifies a
                                  fresh-process remount is damage-free;
                                  writes BENCH_scrub.json
     bench/main.exe latency      request-level latency observability: asserts
                                  the Hdrhist record path allocates zero minor
                                  words per op, uninstalled hooks stay
                                  branch-only, an installed recorder adds <5%
                                  CP time, an injected device spike produces a
                                  device_flush-blamed tail exemplar and an SLO
                                  breach, and the measured closed-loop curve
                                  matches the analytic M/G/1 sweep's shape;
                                  writes BENCH_latency.json
     bench/main.exe fig6|fig7|fig8|fig9|fig10|scalars [full]
*)

open Bechamel
open Toolkit
open Wafl_experiments

(* --- microbenchmarks: the §3.3 data-structure operations --- *)

let n_aas = 100_000
let max_score = 32_768

let scores seed = Array.init n_aas (fun i -> (i * seed) mod (max_score + 1))

let heap_take_and_refile () =
  let h = Wafl_aacache.Max_heap.of_scores (scores 7919) in
  Staged.stage (fun () ->
      match Wafl_aacache.Max_heap.extract_best h with
      | Some (aa, _) -> Wafl_aacache.Max_heap.insert h ~aa ~score:(aa mod max_score)
      | None -> ())

let heap_update () =
  let h = Wafl_aacache.Max_heap.of_scores (scores 7919) in
  let i = ref 0 in
  Staged.stage (fun () ->
      i := (!i + 7919) mod n_aas;
      Wafl_aacache.Max_heap.update h ~aa:!i ~score:((!i * 31) mod max_score))

let hbps_take_and_refile () =
  let h = Wafl_aacache.Hbps.create ~max_score ~scores:(scores 104729) () in
  Wafl_aacache.Hbps.replenish h;
  Staged.stage (fun () ->
      match Wafl_aacache.Hbps.take_best h with
      | Some (aa, _) -> Wafl_aacache.Hbps.update h ~aa ~score:(aa mod max_score)
      | None -> Wafl_aacache.Hbps.replenish h)

let hbps_update () =
  let h = Wafl_aacache.Hbps.create ~max_score ~scores:(scores 104729) () in
  Wafl_aacache.Hbps.replenish h;
  let i = ref 0 in
  Staged.stage (fun () ->
      i := (!i + 104729) mod n_aas;
      Wafl_aacache.Hbps.update h ~aa:!i ~score:((!i * 17) mod max_score))

let full_sort_baseline () =
  (* the strawman HBPS replaces: fully sorting all AAs to find the best *)
  let s = scores 7919 in
  Staged.stage (fun () ->
      let copy = Array.copy s in
      Array.sort (fun a b -> Int.compare b a) copy;
      ignore copy.(0))

let hbps_replenish () =
  let h = Wafl_aacache.Hbps.create ~max_score ~scores:(scores 104729) () in
  Staged.stage (fun () -> Wafl_aacache.Hbps.replenish h)

let micro_tests =
  Test.make_grouped ~name:"aa-cache"
    [
      Test.make ~name:"max-heap take+refile (100k AAs)" (heap_take_and_refile ());
      Test.make ~name:"max-heap update" (heap_update ());
      Test.make ~name:"hbps take+refile (100k AAs)" (hbps_take_and_refile ());
      Test.make ~name:"hbps update" (hbps_update ());
      Test.make ~name:"hbps replenish scan" (hbps_replenish ());
      Test.make ~name:"full-sort baseline" (full_sort_baseline ());
    ]

let run_micro () =
  print_endline "\n================================================================";
  print_endline "Microbenchmarks: HBPS vs max-heap vs full sort (ns/op)";
  print_endline "================================================================";
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true () in
  let raw = Benchmark.all cfg instances micro_tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name result acc -> (name, result) :: acc) results [] in
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "  %-52s %12.1f ns/op\n" name est
      | Some _ | None -> Printf.printf "  %-52s (no estimate)\n" name)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)

(* --- telemetry overhead on the pick path ---

   The same take+refile loop as the microbenchmarks, run through the
   Cache layer under three configurations: telemetry uninstalled,
   installed with tracing off, and installed with tracing on.  The first
   two must be indistinguishable (the emitters reduce to one match on a
   global ref); tracing on is allowed a small ring-buffer push cost. *)

let bench_pick_loop cache iters =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    match Wafl_aacache.Cache.take_best cache with
    | Some (aa, _) -> Wafl_aacache.Cache.cp_update cache [ (aa, aa mod max_score) ]
    | None -> ()
  done;
  Unix.gettimeofday () -. t0

let run_telemetry_overhead () =
  print_endline "\n================================================================";
  print_endline "Telemetry overhead: Cache.take_best + cp_update re-file (ns/op)";
  print_endline "================================================================";
  let iters = 300_000 in
  let fresh () = Wafl_aacache.Cache.raid_aware ~scores:(scores 7919) () in
  let time_config label configure =
    let cache = fresh () in
    ignore (bench_pick_loop cache (iters / 10)) (* warm up *);
    let secs = configure (fun () -> bench_pick_loop (fresh ()) iters) in
    let ns = secs /. float_of_int iters *. 1e9 in
    (label, ns)
  in
  let off = time_config "telemetry uninstalled" (fun f -> f ()) in
  let installed =
    time_config "installed, tracing off" (fun f ->
        Wafl_telemetry.Telemetry.with_installed
          (Wafl_telemetry.Telemetry.create ())
          f)
  in
  let tracing =
    time_config "installed, tracing on" (fun f ->
        Wafl_telemetry.Telemetry.with_installed
          (Wafl_telemetry.Telemetry.create ~tracing:true ())
          f)
  in
  let base = snd off in
  List.iter
    (fun (label, ns) ->
      Printf.printf "  %-28s %10.1f ns/op   (%+.1f%% vs uninstalled)\n" label ns
        ((ns -. base) /. base *. 100.0))
    [ off; installed; tracing ];
  (* Span enter/exit pair in isolation: the per-phase cost an installed
     recorder adds (uninstalled it is one match on a global ref). *)
  let span_pair_ns label =
    let iters = 1_000_000 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      Wafl_telemetry.Telemetry.span_enter Wafl_telemetry.Span.Pick;
      Wafl_telemetry.Telemetry.span_exit Wafl_telemetry.Span.Pick
    done;
    let ns = (Unix.gettimeofday () -. t0) /. float_of_int iters *. 1e9 in
    Printf.printf "  span enter+exit %-12s %10.1f ns/pair\n" label ns
  in
  span_pair_ns "uninstalled";
  Wafl_telemetry.Telemetry.with_installed
    (Wafl_telemetry.Telemetry.create ())
    (fun () -> span_pair_ns "installed");
  (* End-to-end: CP throughput of a sequential write workload, where the
     pick path is one small component.  This is the number the <5%
     regression budget applies to. *)
  print_endline "";
  print_endline "End-to-end: sequential workload, 30 CPs x 1000 blocks (blocks/s)";
  let run_workload () =
    let open Wafl_core in
    let rg = Common.hdd_raid_group Common.Quick in
    let agg_blocks = rg.Config.data_devices * rg.Config.device_blocks in
    let config =
      Config.make ~raid_groups:[ rg ]
        ~vols:
          [ { Config.name = "seq"; blocks = agg_blocks; aa_blocks = None;
              policy = Config.Best_aa } ]
        ~aggregate_policy:Config.Best_aa ~seed:7 ()
    in
    let fs = Fs.create config in
    let workload = Wafl_workload.Sequential.create fs (Fs.vol fs "seq") () in
    let t0 = Unix.gettimeofday () in
    let blocks = ref 0 in
    for _ = 1 to 30 do
      let r = Wafl_workload.Sequential.step workload 1000 in
      blocks := !blocks + r.Cp.blocks_allocated
    done;
    float_of_int !blocks /. (Unix.gettimeofday () -. t0)
  in
  ignore (run_workload ()) (* warm up *);
  ignore (run_workload ());
  (* best-of-3 per configuration: the workload is deterministic, so the
     fastest run is the least noise-polluted one *)
  let best f = List.fold_left (fun acc _ -> Float.max acc (f ())) 0.0 [ (); (); () ] in
  let e2e_off = best run_workload in
  let e2e_installed =
    best (fun () ->
        Wafl_telemetry.Telemetry.with_installed
          (Wafl_telemetry.Telemetry.create ())
          run_workload)
  in
  let e2e_tracing =
    best (fun () ->
        Wafl_telemetry.Telemetry.with_installed
          (Wafl_telemetry.Telemetry.create ~tracing:true ())
          run_workload)
  in
  List.iter
    (fun (label, rate) ->
      Printf.printf "  %-28s %12.0f blocks/s (%+.1f%% vs uninstalled)\n" label rate
        ((e2e_off -. rate) /. e2e_off *. -100.0))
    [
      ("telemetry uninstalled", e2e_off);
      ("installed, tracing off", e2e_installed);
      ("installed, tracing on", e2e_tracing);
    ];
  (* An installed instance now records spans and per-CP time-series rows,
     so the "installed, tracing off" delta is the span overhead the <5%
     regression budget is stated against. *)
  Printf.printf "  span+series overhead (installed vs uninstalled): %+.1f%% (budget < 5%%)\n"
    ((e2e_off -. e2e_installed) /. e2e_off *. 100.0)

(* --- allocation hot path: list queue vs harvest ring (PR 2) ---

   Two identically configured Best_aa aggregates run the same workload —
   fill to 75% in CP-sized chunks, then free every other allocated block
   and allocate them back — once through a faithful reconstruction of the
   pre-harvest allocator (per-AA free VBNs gathered into an int list by
   probing the bitmap per block, a second is_allocated check on every
   pop, one list cell per block) and once through
   Write_alloc.allocate_pvbns_into over the cursor ring.  Reports
   ns/block and bitmap words read per block, asserts the ring-served
   consume window allocates zero minor heap words, and writes the
   numbers to BENCH_alloc.json. *)

let cp_chunk = 4096

let alloc_config scale =
  let rg = Common.hdd_raid_group scale in
  Wafl_core.Config.make ~raid_groups:[ rg ] ~aggregate_policy:Wafl_core.Config.Best_aa
    ~seed:7 ()

type list_cursor = { mutable queue : int list }

let rec baseline_pick cache attempts =
  if attempts = 0 then None
  else
    match Wafl_aacache.Cache.take_best cache with
    | None -> None
    | Some (aa, score) -> if score > 0 then Some aa else baseline_pick cache (attempts - 1)

(* The removed list-returning Aggregate.free_vbns_of_aa, reconstructed
   here verbatim: one is_allocated probe and one list cell per block —
   the very shape the harvest ring replaced. *)
let baseline_free_vbns agg (range : Wafl_core.Aggregate.range) aa =
  let mf = Wafl_core.Aggregate.metafile agg in
  let acc = ref [] in
  Wafl_aa.Topology.iter_aa_vbns range.Wafl_core.Aggregate.topology aa ~f:(fun local ->
      let pvbn = Wafl_core.Aggregate.to_global range local in
      if not (Wafl_bitmap.Metafile.is_allocated mf pvbn) then acc := pvbn :: !acc);
  List.rev !acc

let rec baseline_refill agg (range : Wafl_core.Aggregate.range) cur =
  match baseline_pick (Option.get range.Wafl_core.Aggregate.cache) 8 with
  | None -> false
  | Some aa ->
    cur.queue <- baseline_free_vbns agg range aa;
    cur.queue <> [] || baseline_refill agg range cur

(* Mirrors the old Write_alloc.take_from_range: pops accumulate into a
   list that is reversed to allocation order, with the per-pop metafile
   re-check the list queue needed (it could be stale across CPs). *)
let baseline_take agg range cur mf want =
  let rec go acc want =
    if want = 0 then acc
    else
      match cur.queue with
      | pvbn :: rest ->
        cur.queue <- rest;
        if Wafl_bitmap.Metafile.is_allocated mf pvbn then go acc want
        else begin
          Wafl_core.Aggregate.allocate agg ~pvbn;
          go (pvbn :: acc) (want - 1)
        end
      | [] -> if baseline_refill agg range cur then go acc want else acc
  in
  List.rev (go [] want)

(* Free every other block of [allocated], commit, and return how many. *)
let free_alternate agg allocated n =
  let freed = ref 0 in
  let i = ref 0 in
  while !i < n do
    Wafl_core.Aggregate.queue_free agg ~pvbn:allocated.(!i);
    incr freed;
    i := !i + 2
  done;
  ignore (Wafl_core.Aggregate.commit_frees agg);
  !freed

type alloc_run = {
  fill_secs : float;
  fill_blocks : int;
  frag_secs : float;
  frag_blocks : int;
  fill_words : int; (* bitmap words read by the harvest kernels; 0 for baseline *)
  frag_words : int;
}

(* The timed window per CP chunk is allocate + consumer walk + CP-boundary
   cache update — the allocator hot path a CP writer pays.  Recording the
   PVBNs for the later free phase is bench bookkeeping and stays outside
   the timer. *)
let run_alloc_baseline scale =
  let agg = Wafl_core.Aggregate.create (alloc_config scale) in
  let range = (Wafl_core.Aggregate.ranges agg).(0) in
  let mf = Wafl_core.Aggregate.metafile agg in
  let cur = { queue = [] } in
  let fill_target = Wafl_core.Aggregate.total_blocks agg * 3 / 4 in
  let allocated = Array.make fill_target 0 in
  let sum = ref 0 in
  let phase target =
    let secs = ref 0.0 in
    let got = ref 0 in
    while !got < target do
      let want = min cp_chunk (target - !got) in
      let t0 = Unix.gettimeofday () in
      let blocks = baseline_take agg range cur mf want in
      (* the consumer walks the returned list *)
      List.iter (fun pvbn -> sum := !sum lxor pvbn) blocks;
      Wafl_core.Aggregate.cp_update_caches agg;
      secs := !secs +. (Unix.gettimeofday () -. t0);
      let k = ref !got in
      List.iter
        (fun pvbn ->
          allocated.(!k) <- pvbn;
          incr k)
        blocks;
      if !k = !got then failwith "bench alloc: baseline ran out of space";
      got := !k
    done;
    !secs
  in
  let fill_secs = phase fill_target in
  let frag_target = free_alternate agg allocated fill_target in
  Wafl_core.Aggregate.cp_update_caches agg;
  let frag_secs = phase frag_target in
  ignore !sum;
  {
    fill_secs;
    fill_blocks = fill_target;
    frag_secs;
    frag_blocks = frag_target;
    fill_words = 0;
    frag_words = 0;
  }

let run_alloc_harvest scale =
  let agg = Wafl_core.Aggregate.create (alloc_config scale) in
  let w = Wafl_core.Write_alloc.create agg ~rng:(Wafl_util.Rng.create ~seed:7) in
  let fill_target = Wafl_core.Aggregate.total_blocks agg * 3 / 4 in
  let allocated = Array.make fill_target 0 in
  let dst = Array.make cp_chunk 0 in
  let sum = ref 0 in
  let phase target =
    let secs = ref 0.0 in
    let got = ref 0 in
    while !got < target do
      let want = min cp_chunk (target - !got) in
      let t0 = Unix.gettimeofday () in
      let n = Wafl_core.Write_alloc.allocate_pvbns_into w ~dst want in
      (* the consumer reads the filled array *)
      for i = 0 to n - 1 do
        sum := !sum lxor dst.(i)
      done;
      Wafl_core.Write_alloc.cp_finish w;
      secs := !secs +. (Unix.gettimeofday () -. t0);
      if n = 0 then failwith "bench alloc: harvest ran out of space";
      Array.blit dst 0 allocated !got n;
      got := !got + n
    done;
    !secs
  in
  let words0 = Wafl_core.Write_alloc.words_scanned w in
  let fill_secs = phase fill_target in
  let fill_words = Wafl_core.Write_alloc.words_scanned w - words0 in
  let frag_target = free_alternate agg allocated fill_target in
  Wafl_core.Write_alloc.cp_finish w;
  let words1 = Wafl_core.Write_alloc.words_scanned w in
  let frag_secs = phase frag_target in
  let frag_words = Wafl_core.Write_alloc.words_scanned w - words1 in
  ignore !sum;
  {
    fill_secs;
    fill_blocks = fill_target;
    frag_secs;
    frag_blocks = frag_target;
    fill_words;
    frag_words;
  }

(* The workloads are deterministic; best-of-5 takes the least
   noise-polluted run of each phase. *)
let best_of_5 run scale =
  let rec go best k =
    if k = 0 then best
    else
      let r = run scale in
      go
        {
          r with
          fill_secs = Float.min best.fill_secs r.fill_secs;
          frag_secs = Float.min best.frag_secs r.frag_secs;
        }
        (k - 1)
  in
  go (run scale) 4

(* Ring-served consume window must allocate nothing: warm call fills the
   cursor ring (one quick-scale AA holds 4096 blocks), second call is
   served entirely from it. *)
let alloc_zero_alloc_words ?(backend = Wafl_bitmap.Pagestore.Heap) () =
  Wafl_bitmap.Pagestore.with_default backend (fun () ->
      let agg = Wafl_core.Aggregate.create (alloc_config Common.Quick) in
      let w = Wafl_core.Write_alloc.create agg ~rng:(Wafl_util.Rng.create ~seed:7) in
      let dst = Array.make 256 0 in
      ignore (Wafl_core.Write_alloc.allocate_pvbns_into w ~dst 256);
      let before = Gc.minor_words () in
      ignore (Wafl_core.Write_alloc.allocate_pvbns_into w ~dst 256);
      Gc.minor_words () -. before)

let ns_per_block secs blocks = secs /. float_of_int blocks *. 1e9

let alloc_scale_json scale_name base harv =
  let wpb w b = float_of_int w /. float_of_int b in
  Printf.sprintf
    {|    {
      "scale": "%s",
      "blocks": { "fill": %d, "refill": %d },
      "baseline_list_queue": {
        "fill_ns_per_block": %.1f,
        "refill_ns_per_block": %.1f
      },
      "harvest_ring": {
        "fill_ns_per_block": %.1f,
        "refill_ns_per_block": %.1f,
        "fill_words_per_block": %.3f,
        "refill_words_per_block": %.3f
      },
      "speedup": { "fill": %.2f, "refill": %.2f, "overall": %.2f }
    }|}
    scale_name base.fill_blocks base.frag_blocks
    (ns_per_block base.fill_secs base.fill_blocks)
    (ns_per_block base.frag_secs base.frag_blocks)
    (ns_per_block harv.fill_secs harv.fill_blocks)
    (ns_per_block harv.frag_secs harv.frag_blocks)
    (wpb harv.fill_words harv.fill_blocks)
    (wpb harv.frag_words harv.frag_blocks)
    (base.fill_secs /. harv.fill_secs)
    (base.frag_secs /. harv.frag_secs)
    ((base.fill_secs +. base.frag_secs) /. (harv.fill_secs +. harv.frag_secs))

let run_alloc ~scale () =
  Common.banner "Allocation hot path: list queue vs harvest ring (ns/block)";
  let scales =
    match scale with Common.Quick -> [ Common.Quick ] | Common.Full -> [ Common.Quick; Common.Full ]
  in
  let sections =
    List.map
      (fun s ->
        let name = match s with Common.Quick -> "quick" | Common.Full -> "full" in
        let base = best_of_5 run_alloc_baseline s in
        let harv = best_of_5 run_alloc_harvest s in
        Printf.printf "  [%s] fill   %8.1f -> %7.1f ns/block  (%.2fx, %.3f words/block)\n" name
          (ns_per_block base.fill_secs base.fill_blocks)
          (ns_per_block harv.fill_secs harv.fill_blocks)
          (base.fill_secs /. harv.fill_secs)
          (float_of_int harv.fill_words /. float_of_int harv.fill_blocks);
        Printf.printf "  [%s] refill %8.1f -> %7.1f ns/block  (%.2fx, %.3f words/block)\n" name
          (ns_per_block base.frag_secs base.frag_blocks)
          (ns_per_block harv.frag_secs harv.frag_blocks)
          (base.frag_secs /. harv.frag_secs)
          (float_of_int harv.frag_words /. float_of_int harv.frag_blocks);
        alloc_scale_json name base harv)
      scales
  in
  let zero_words = alloc_zero_alloc_words ~backend:Wafl_bitmap.Pagestore.Heap () in
  let zero_words_big = alloc_zero_alloc_words ~backend:Wafl_bitmap.Pagestore.Bigarray () in
  Printf.printf "  ring-served consume window: %.0f minor heap words (heap backend)\n"
    zero_words;
  Printf.printf "  ring-served consume window: %.0f minor heap words (bigarray backend)\n"
    zero_words_big;
  let oc = open_out "BENCH_alloc.json" in
  Printf.fprintf oc
    {|{
  "benchmark": "write-allocation hot path: list-queue baseline vs harvest-ring",
  "workload": "fill one 4+1 HDD raid group to 75%% in 4096-block CPs, then free every other block and allocate them back",
  "zero_alloc_minor_words": %.0f,
  "zero_alloc_minor_words_bigarray": %.0f,
  "scales": [
%s
  ]
}
|}
    zero_words zero_words_big
    (String.concat ",\n" sections);
  close_out oc;
  print_endline "  wrote BENCH_alloc.json";
  if zero_words <> 0.0 || zero_words_big <> 0.0 then begin
    Printf.eprintf
      "FAIL: ring-served allocation window allocated minor words (heap %.0f, bigarray %.0f; \
       expected 0)\n"
      zero_words zero_words_big;
    exit 1
  end

(* --- domain-parallel scan engine: scaling curve (PR 4) ---

   One aged two-RAID-group system, snapshotted once, then remounted with
   a full-scan rebuild and driven through one CP commit — serially and
   under installed pools of 1/2/4/8 domains.  Reports honest wall-clock
   for every configuration (this host may have a single core, in which
   case parallel wall-clock cannot improve) alongside the modeled
   [ready_us] of the full-scan mount, whose linear page-scan term divides
   by the domain count — the number the >=2.5x acceptance criterion is
   stated against.  Asserts that every parallel configuration reproduces
   the serial cache scores and CP report exactly, and that the ring-served
   consume window still allocates zero minor words with a pool installed. *)

let par_jobs_list = [ 1; 2; 4; 8 ]

let par_config scale =
  let rg = Common.hdd_raid_group scale in
  Wafl_core.Config.make ~raid_groups:[ rg; rg ]
    ~vols:[ Wafl_core.Config.default_vol ~name:"vol0" ~blocks:65_536 ]
    ~aggregate_policy:Wafl_core.Config.Best_aa ~seed:7 ()

(* Age the system with overwrite pressure so the rebuild and the CP have
   nonuniform free space to chew on, then freeze it as a crash image. *)
let par_build_image scale =
  let fs = Wafl_core.Fs.create (par_config scale) in
  let vol = (Wafl_core.Fs.vols fs).(0) in
  let cps, ops = match scale with Common.Quick -> (4, 2048) | Common.Full -> (8, 8192) in
  for cp = 0 to cps - 1 do
    for i = 0 to ops - 1 do
      Wafl_core.Fs.stage_write fs ~vol ~file:(cp mod 4) ~offset:i
    done;
    ignore (Wafl_core.Fs.run_cp fs)
  done;
  Wafl_core.Mount.snapshot fs

(* jobs = 0 means "no pool at all" — the serial baseline. *)
let par_with_jobs jobs f =
  if jobs = 0 then f ()
  else begin
    Wafl_par.Par.install ~jobs;
    Fun.protect ~finally:Wafl_par.Par.uninstall f
  end

let par_time_best n f =
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to n do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    result := Some r
  done;
  (!best, Option.get !result)

(* The observable allocator state a rebuild must reproduce: every range's
   and volume's score array. *)
let par_state_of fs =
  ( Array.map
      (fun (r : Wafl_core.Aggregate.range) -> Array.copy r.Wafl_core.Aggregate.scores)
      (Wafl_core.Aggregate.ranges (Wafl_core.Fs.aggregate fs)),
    Array.map (fun v -> Array.copy (Wafl_core.Flexvol.scores v)) (Wafl_core.Fs.vols fs) )

type par_run = {
  mount_wall_s : float;
  mount_ready_us : float;
  cp_wall_s : float;  (* median over [par_cps] consecutive CPs *)
  state : int array array * int array array;
  cp_reports : Wafl_core.Cp.report list;
}

let par_cps = 5

(* Full-scan remount, then [par_cps] consecutive overwrite-heavy CPs,
   each staged and timed on its own; the CP time is their median, since
   one CP swings too much from run to run to show a CP-path change.
   Every series starts from a compacted heap: otherwise the major-GC work
   left behind by the previous series (its mounts and CPs) lands in this
   series' mounts, and the jobs=1-vs-serial comparison measures that debt
   rather than the pool. *)
let par_run_once image scale jobs =
  Gc.compact ();
  par_with_jobs jobs (fun () ->
      let reps = match scale with Common.Quick -> 3 | Common.Full -> 2 in
      let mount_wall_s, (fs, timing) =
        par_time_best reps (fun () -> Wafl_core.Mount.mount image ~with_topaa:false)
      in
      let state = par_state_of fs in
      let vol = (Wafl_core.Fs.vols fs).(0) in
      let ops = match scale with Common.Quick -> 4096 | Common.Full -> 16384 in
      let walls = Array.make par_cps 0.0 in
      let reports = ref [] in
      for k = 0 to par_cps - 1 do
        for i = 0 to ops - 1 do
          Wafl_core.Fs.stage_write fs ~vol ~file:(i mod 4) ~offset:(i mod 2048)
        done;
        let t0 = Unix.gettimeofday () in
        reports := Wafl_core.Fs.run_cp fs :: !reports;
        walls.(k) <- Unix.gettimeofday () -. t0
      done;
      Array.sort compare walls;
      {
        mount_wall_s;
        mount_ready_us = timing.Wafl_core.Mount.ready_us;
        cp_wall_s = walls.(par_cps / 2);
        state;
        cp_reports = List.rev !reports;
      })

let run_par ~scale () =
  Common.banner "Domain-parallel scans: full-scan mount + sharded CP (wall vs modeled)";
  let image = par_build_image scale in
  let serial = par_run_once image scale 0 in
  Printf.printf "  host cores: %d (wall-clock speedup is bounded by this)\n"
    (Domain.recommended_domain_count ());
  Printf.printf "  %-8s mount %8.1f ms wall  ready_us %12.0f   cp %8.1f ms wall\n" "serial"
    (serial.mount_wall_s *. 1e3) serial.mount_ready_us (serial.cp_wall_s *. 1e3);
  let runs =
    List.map
      (fun jobs ->
        let r = par_run_once image scale jobs in
        let identical = r.state = serial.state && r.cp_reports = serial.cp_reports in
        Printf.printf
          "  jobs=%-3d mount %8.1f ms wall  ready_us %12.0f   cp %8.1f ms wall  %s\n" jobs
          (r.mount_wall_s *. 1e3) r.mount_ready_us (r.cp_wall_s *. 1e3)
          (if identical then "state=serial" else "STATE MISMATCH");
        if not identical then begin
          Printf.eprintf "FAIL: jobs=%d diverged from the serial mount/CP state\n" jobs;
          exit 1
        end;
        (jobs, r))
      par_jobs_list
  in
  let modeled_speedup jobs =
    serial.mount_ready_us /. (List.assoc jobs runs).mount_ready_us
  in
  let jobs1 = List.assoc 1 runs in
  let jobs1_delta_pct =
    (jobs1.mount_wall_s -. serial.mount_wall_s) /. serial.mount_wall_s *. 100.0
  in
  Printf.printf "  modeled full-scan mount speedup at 4 domains: %.2fx (acceptance >= 2.5)\n"
    (modeled_speedup 4);
  Printf.printf "  jobs=1 mount wall vs serial: %+.1f%%\n" jobs1_delta_pct;
  let zero_words =
    par_with_jobs 4 (fun () -> alloc_zero_alloc_words ())
  in
  Printf.printf "  ring-served consume window under a 4-domain pool: %.0f minor words\n"
    zero_words;
  let scale_name = match scale with Common.Quick -> "quick" | Common.Full -> "full" in
  let run_json (jobs, (r : par_run)) =
    Printf.sprintf
      {|    {
      "jobs": %d,
      "mount_wall_s": %.6f,
      "mount_ready_us": %.0f,
      "modeled_mount_speedup": %.3f,
      "cp_wall_s": %.6f,
      "state_identical_to_serial": true
    }|}
      jobs r.mount_wall_s r.mount_ready_us
      (serial.mount_ready_us /. r.mount_ready_us)
      r.cp_wall_s
  in
  let oc = open_out "BENCH_par.json" in
  Printf.fprintf oc
    {|{
  "benchmark": "domain-parallel scan engine: full-scan mount rebuild + sharded CP commit",
  "workload": "age a two-raid-group system with overwrites, snapshot, remount with a full bitmap scan, then commit five overwrite-heavy CPs (cp_wall_s is their median)",
  "scale": "%s",
  "host_cores": %d,
  "note": "wall-clock is honest for this host and cannot beat host_cores; the acceptance speedup is stated on the modeled full-scan ready_us, whose linear page-scan term divides by the domain count",
  "serial": { "mount_wall_s": %.6f, "mount_ready_us": %.0f, "cp_wall_s": %.6f },
  "modeled_mount_speedup_at_4_domains": %.3f,
  "jobs1_mount_wall_vs_serial_pct": %.2f,
  "zero_alloc_minor_words_under_pool": %.0f,
  "runs": [
%s
  ]
}
|}
    scale_name
    (Domain.recommended_domain_count ())
    serial.mount_wall_s serial.mount_ready_us serial.cp_wall_s (modeled_speedup 4)
    jobs1_delta_pct zero_words
    (String.concat ",\n" (List.map run_json runs));
  close_out oc;
  print_endline "  wrote BENCH_par.json";
  if zero_words <> 0.0 then begin
    Printf.eprintf
      "FAIL: consume window under a pool allocated %.0f minor words (expected 0)\n" zero_words;
    exit 1
  end;
  if modeled_speedup 4 < 2.5 then begin
    Printf.eprintf "FAIL: modeled mount speedup at 4 domains %.2fx < 2.5x\n"
      (modeled_speedup 4);
    exit 1
  end

(* --- multi-writer allocation: "alloc par" ---

   Fill a byte-aligned two-raid-group aggregate to capacity through
   [Write_alloc.allocate_pvbns_into] at 1/2/4/8 allocation domains, one
   parallel window per batch, so the per-domain window stats cover the
   whole fill.  Hard gates: every domain count hands out exactly the
   serial block count and leaves a bitmap identical to the serial fill,
   the consume loops allocate zero minor-heap words on every domain, and
   the modeled speedup at 4 domains is >= 2.5x.  Wall-clock blocks/s is
   reported honestly (bounded by host cores); the acceptance is stated
   on the modeled number: per-block consume work divides by the domain
   count (the largest per-domain share is the critical path), while each
   AA pick serializes behind the pick mutex at a stated cost of
   [allocpar_pick_units] block-equivalents, and each window's
   single-threaded tail stays serial. *)

let allocpar_jobs_list = [ 1; 2; 4; 8 ]
let allocpar_pick_units = 64

let allocpar_config scale =
  let rg = Common.hdd_raid_group scale in
  Wafl_core.Config.make ~raid_groups:[ rg; rg ]
    ~vols:[ Wafl_core.Config.default_vol ~name:"vol0" ~blocks:4096 ]
    ~aggregate_policy:Wafl_core.Config.Best_aa ~seed:7 ()

type allocpar_run = {
  ap_wall_s : float;
  ap_blocks : int;
  ap_minor_words : int;
  ap_max_shard : int;    (* per-window largest domain share, summed *)
  ap_serial_tail : int;  (* blocks the single-threaded window tails handed out *)
  ap_picks : int;        (* AAs taken, i.e. serialized pick-mutex sections *)
  ap_bitmap : Wafl_bitmap.Bitmap.t;
}

(* Every batch is asked at the full batch size even near the end, so each
   call opens an allocation window (at jobs > 1) and ring leftovers from
   chunk-exact fills drain in the following window — the same cadence a
   CP's repeated allocation calls have. *)
let allocpar_batch = 65_536

let allocpar_run_once scale jobs =
  let install = jobs > 1 in
  if install then Wafl_core.Write_alloc.install_alloc_pool ~jobs;
  Fun.protect
    ~finally:(fun () ->
      if install then Wafl_core.Write_alloc.uninstall_alloc_pool ())
    (fun () ->
      let fs = Wafl_core.Fs.create (allocpar_config scale) in
      let wa = Wafl_core.Fs.write_alloc fs in
      let agg = Wafl_core.Fs.aggregate fs in
      let n = Wafl_core.Aggregate.free_blocks agg in
      let dst = Array.make allocpar_batch 0 in
      let total = ref 0 in
      let window_blocks = ref 0 in
      let max_shard_units = ref 0 in
      let minor = ref 0 in
      let t0 = Unix.gettimeofday () in
      let rec fill () =
        let got = Wafl_core.Write_alloc.allocate_pvbns_into wa ~dst allocpar_batch in
        total := !total + got;
        if install then begin
          let stats = Wafl_core.Write_alloc.last_par_stats wa in
          let window_max = ref 0 in
          Array.iter
            (fun s ->
              window_blocks := !window_blocks + s.Wafl_core.Write_alloc.ps_allocated;
              window_max := max !window_max s.Wafl_core.Write_alloc.ps_allocated;
              minor := !minor + s.Wafl_core.Write_alloc.ps_minor_words)
            stats;
          max_shard_units := !max_shard_units + !window_max
        end;
        if got > 0 then fill ()
      in
      fill ();
      let wall = Unix.gettimeofday () -. t0 in
      if !total <> n || Wafl_core.Aggregate.free_blocks agg <> 0 then begin
        Printf.eprintf "FAIL: alloc par jobs=%d handed out %d of %d blocks (%d left free)\n"
          jobs !total n (Wafl_core.Aggregate.free_blocks agg);
        exit 1
      end;
      {
        ap_wall_s = wall;
        ap_blocks = n;
        ap_minor_words = !minor;
        ap_max_shard = !max_shard_units;
        ap_serial_tail = n - !window_blocks;
        ap_picks = Wafl_core.Write_alloc.aas_taken wa;
        ap_bitmap =
          Wafl_bitmap.Metafile.snapshot (Wafl_core.Aggregate.metafile agg);
      })

(* Critical-path block-equivalents of one fill: the largest per-domain
   consume share, plus the serial tail, plus every pick's serialized
   section.  jobs=1 runs entirely on the serial path (max_shard 0,
   tail = blocks), so the same formula covers it. *)
let allocpar_units r =
  r.ap_max_shard + r.ap_serial_tail + (r.ap_picks * allocpar_pick_units)

let run_allocpar ~scale () =
  Common.banner
    "Multi-writer allocation: fill-to-capacity at 1/2/4/8 domains";
  Printf.printf "  host cores: %d (wall-clock speedup is bounded by this)\n"
    (Domain.recommended_domain_count ());
  let runs =
    List.map (fun jobs -> (jobs, allocpar_run_once scale jobs)) allocpar_jobs_list
  in
  let serial = List.assoc 1 runs in
  let serial_units = float_of_int (allocpar_units serial) in
  let modeled jobs =
    serial_units /. float_of_int (allocpar_units (List.assoc jobs runs))
  in
  List.iter
    (fun (jobs, r) ->
      let identical =
        r.ap_blocks = serial.ap_blocks
        && Wafl_bitmap.Bitmap.equal r.ap_bitmap serial.ap_bitmap
      in
      Printf.printf
        "  jobs=%-3d %9.2f Mblk/s wall  modeled %5.2fx  tail %6d  %s\n"
        jobs
        (float_of_int r.ap_blocks /. r.ap_wall_s /. 1e6)
        (modeled jobs) r.ap_serial_tail
        (if identical then "state=serial" else "STATE MISMATCH");
      if not identical then begin
        Printf.eprintf "FAIL: alloc par jobs=%d diverged from the serial fill\n" jobs;
        exit 1
      end;
      if r.ap_minor_words <> 0 then begin
        Printf.eprintf
          "FAIL: alloc par jobs=%d consume loops allocated %d minor words (expected 0)\n"
          jobs r.ap_minor_words;
        exit 1
      end)
    runs;
  Printf.printf
    "  modeled allocation speedup at 4 domains: %.2fx (acceptance >= 2.5)\n"
    (modeled 4);
  let scale_name = match scale with Common.Quick -> "quick" | Common.Full -> "full" in
  let run_json (jobs, r) =
    Printf.sprintf
      {|    {
      "jobs": %d,
      "wall_s": %.6f,
      "blocks_per_s": %.0f,
      "modeled_speedup": %.3f,
      "serial_tail_blocks": %d,
      "minor_words": %d,
      "state_identical_to_serial": true
    }|}
      jobs r.ap_wall_s
      (float_of_int r.ap_blocks /. r.ap_wall_s)
      (modeled jobs) r.ap_serial_tail r.ap_minor_words
  in
  let oc = open_out "BENCH_allocpar.json" in
  Printf.fprintf oc
    {|{
  "benchmark": "multi-writer allocation: fill-to-capacity scaling",
  "workload": "allocate every free block of a byte-aligned two-raid-group aggregate in 64 Ki-block batches, one allocation window each, at every domain count",
  "scale": "%s",
  "host_cores": %d,
  "note": "wall-clock is honest for this host; the acceptance speedup is modeled as critical-path block-equivalents: max per-domain share + serial tail + %d units per serialized AA pick",
  "blocks": %d,
  "picks": %d,
  "serial": { "wall_s": %.6f, "blocks_per_s": %.0f },
  "modeled_alloc_speedup_at_4_domains": %.3f,
  "runs": [
%s
  ]
}
|}
    scale_name
    (Domain.recommended_domain_count ())
    allocpar_pick_units serial.ap_blocks serial.ap_picks serial.ap_wall_s
    (float_of_int serial.ap_blocks /. serial.ap_wall_s)
    (modeled 4)
    (String.concat ",\n" (List.map run_json runs));
  close_out oc;
  print_endline "  wrote BENCH_allocpar.json";
  if modeled 4 < 2.5 then begin
    Printf.eprintf "FAIL: modeled allocation speedup at 4 domains %.2fx < 2.5x\n"
      (modeled 4);
    exit 1
  end

(* --- fault-plane overhead on the CP write path --- *)

(* A plane is attached to every device but never fires: isolates the cost
   of the per-I/O hooks from the cost of actually injecting errors. *)
let zero_fault_spec =
  {
    Wafl_fault.Fault.default_spec with
    Wafl_fault.Fault.transient_p = 0.0;
    torn_p = 0.0;
    spike_p = 0.0;
  }

let run_faults_once spec ~scale =
  (match spec with
  | Some s -> Wafl_fault.Fault.install_default s
  | None -> Wafl_fault.Fault.uninstall_default ());
  Fun.protect ~finally:Wafl_fault.Fault.uninstall_default (fun () ->
      let config =
        Wafl_core.Config.make
          ~raid_groups:[ Common.hdd_raid_group scale ]
          ~vols:[ Wafl_core.Config.default_vol ~name:"vol0" ~blocks:65_536 ]
          ~seed:7 ()
      in
      let fs = Wafl_core.Fs.create config in
      let vol = (Wafl_core.Fs.vols fs).(0) in
      let cps, ops = match scale with Common.Quick -> (6, 4096) | Common.Full -> (12, 8192) in
      let blocks = ref 0 in
      let totals = ref None in
      let t0 = Unix.gettimeofday () in
      for cp = 0 to cps - 1 do
        for i = 0 to ops - 1 do
          Wafl_core.Fs.stage_write fs ~vol ~file:(cp mod 4) ~offset:i
        done;
        let r = Wafl_core.Fs.run_cp fs in
        blocks := !blocks + r.Wafl_core.Cp.blocks_allocated;
        totals := r.Wafl_core.Cp.fault_totals
      done;
      (Unix.gettimeofday () -. t0, !blocks, !totals))

let run_faults ~scale () =
  Common.banner "Fault plane overhead on the CP write path (ns/block)";
  let report name spec =
    let best = ref infinity in
    let blocks = ref 0 in
    let totals = ref None in
    for _ = 1 to 3 do
      let secs, b, t = run_faults_once spec ~scale in
      if secs < !best then best := secs;
      blocks := b;
      totals := t
    done;
    Printf.printf "  %-24s %8.1f ns/block" name (ns_per_block !best !blocks);
    (match !totals with
    | Some t ->
      Printf.printf "  (transients %d, retries ok %d, failed %d)"
        t.Wafl_fault.Fault.injected_transient t.Wafl_fault.Fault.retries_ok
        t.Wafl_fault.Fault.failed
    | None -> ());
    print_newline ();
    !best
  in
  let none = report "no fault plane" None in
  let zero = report "zero-probability plane" (Some zero_fault_spec) in
  let dflt = report "default transients" (Some Wafl_fault.Fault.default_spec) in
  Printf.printf "  hook overhead %+.1f%%, default profile %+.1f%% vs no plane\n"
    (((zero /. none) -. 1.0) *. 100.0)
    (((dflt /. none) -. 1.0) *. 100.0)

(* --- offheap: the page-store backends at modeled billion-block scale (PR 6) ---

   An aggregate of 16 object-backed (RAID-agnostic) ranges is sized at
   2^24 and 2^27 blocks on both backends, and at 2^30 — a modeled
   billion-block aggregate, 128 MiB of allocation bitmap — on the
   bigarray backend, where the GC sees only the store handles.  Each case
   builds the system, commits one small CP's worth of allocations,
   snapshots it, and remounts the image twice: lazily (--lazy-rebuild:
   TopAA-seeded, nothing scanned, every range stale) and eagerly (full
   scan).  After the lazy mount one 8-block allocation shows incremental
   materialization: only the range the allocator actually refilled pays
   its rescore.  Asserts that

   - the lazy modeled mount-ready time is independent of aggregate size
     (largest/smallest under 2.5x — the residual growth is the TopAA
     seed count rising until the top-500-AAs-per-range cap engages —
     while the eager full scan grows ~64x, at least 10x the lazy ratio),
   - the first touch materializes strictly fewer than half the ranges,
   - at the billion-block size the live OCaml heap stays under a quarter
     of one bitmap copy (the free-space state is off-heap),

   and writes the numbers to BENCH_offheap.json. *)

type offheap_case = {
  oh_blocks : int;
  oh_backend : string;
  oh_build_secs : float;
  oh_lazy_ready_us : float;
  oh_eager_ready_us : float;
  oh_lazy_mount_secs : float;
  oh_touched_ranges : int;
  oh_total_ranges : int;
  oh_first_touch_pages : int;
  oh_heap_mb : float;
  oh_rss_mb : float;
}

let vm_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line ->
      if String.length line > 6 && String.sub line 0 6 = "VmRSS:" then begin
        let kb = ref 0 in
        String.iter
          (fun c -> if c >= '0' && c <= '9' then kb := (!kb * 10) + (Char.code c - Char.code '0'))
          line;
        float_of_int !kb /. 1024.0
      end
      else go ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

let offheap_aa_blocks = 32768

let offheap_case ~backend ~blocks =
  Wafl_bitmap.Pagestore.with_default backend (fun () ->
      let n_ranges = 16 in
      let spec =
        {
          Wafl_core.Config.profile = Wafl_device.Profile.default_object_store;
          blocks = blocks / n_ranges;
          aa_blocks = Some offheap_aa_blocks;
        }
      in
      let config =
        Wafl_core.Config.make ~raid_groups:[]
          ~object_ranges:(List.init n_ranges (fun _ -> spec))
          ~aggregate_policy:Wafl_core.Config.Best_aa ~seed:7 ()
      in
      let t0 = Unix.gettimeofday () in
      let fs = Wafl_core.Fs.create config in
      let build_secs = Unix.gettimeofday () -. t0 in
      (* one small committed CP so the image is not trivially empty *)
      let w = Wafl_core.Fs.write_alloc fs in
      let dst = Array.make 4096 0 in
      ignore (Wafl_core.Write_alloc.allocate_pvbns_into w ~dst 4096);
      Wafl_core.Write_alloc.cp_finish w;
      let image = Wafl_core.Mount.snapshot fs in
      let t1 = Unix.gettimeofday () in
      let mounted, lazy_t =
        Wafl_core.Mount.mount ~lazy_rebuild:true image ~with_topaa:true
      in
      let lazy_mount_secs = Unix.gettimeofday () -. t1 in
      (* first touch: a small allocation refills one cursor, so exactly
         the ranges it drew from pay their rescore — not the aggregate *)
      let agg = Wafl_core.Fs.aggregate mounted in
      let mf = Wafl_core.Aggregate.metafile agg in
      let reads_before = (Wafl_bitmap.Metafile.stats mf).Wafl_bitmap.Metafile.page_reads in
      ignore (Wafl_core.Write_alloc.allocate_pvbns_into (Wafl_core.Fs.write_alloc mounted) ~dst 8);
      let first_touch_pages =
        (Wafl_bitmap.Metafile.stats mf).Wafl_bitmap.Metafile.page_reads - reads_before
      in
      let touched =
        Array.fold_left
          (fun acc r -> if Wafl_core.Aggregate.range_fresh agg r then acc + 1 else acc)
          0 (Wafl_core.Aggregate.ranges agg)
      in
      let _, eager_t = Wafl_core.Mount.mount image ~with_topaa:false in
      Gc.full_major ();
      let heap_mb = float_of_int ((Gc.quick_stat ()).Gc.heap_words * 8) /. 1048576.0 in
      {
        oh_blocks = blocks;
        oh_backend = Wafl_bitmap.Pagestore.backend_name backend;
        oh_build_secs = build_secs;
        oh_lazy_ready_us = lazy_t.Wafl_core.Mount.ready_us;
        oh_eager_ready_us = eager_t.Wafl_core.Mount.ready_us;
        oh_lazy_mount_secs = lazy_mount_secs;
        oh_touched_ranges = touched;
        oh_total_ranges = 16;
        oh_first_touch_pages = first_touch_pages;
        oh_heap_mb = heap_mb;
        oh_rss_mb = vm_rss_mb ();
      })

let offheap_case_json c =
  Printf.sprintf
    {|    {
      "blocks": %d,
      "backend": "%s",
      "build_secs": %.3f,
      "lazy_ready_us": %.1f,
      "eager_ready_us": %.1f,
      "lazy_mount_wall_secs": %.4f,
      "first_touch": { "ranges": %d, "of_ranges": %d, "pages": %d },
      "heap_mb": %.1f,
      "rss_mb": %.1f
    }|}
    c.oh_blocks c.oh_backend c.oh_build_secs c.oh_lazy_ready_us c.oh_eager_ready_us
    c.oh_lazy_mount_secs c.oh_touched_ranges c.oh_total_ranges c.oh_first_touch_pages
    c.oh_heap_mb c.oh_rss_mb

let run_offheap () =
  Common.banner "Off-heap page store: modeled billion-block aggregate, lazy vs eager mount";
  let cases =
    [
      (Wafl_bitmap.Pagestore.Heap, 1 lsl 24);
      (Wafl_bitmap.Pagestore.Heap, 1 lsl 27);
      (Wafl_bitmap.Pagestore.Bigarray, 1 lsl 24);
      (Wafl_bitmap.Pagestore.Bigarray, 1 lsl 27);
      (Wafl_bitmap.Pagestore.Bigarray, 1 lsl 30);
    ]
  in
  let rows =
    List.map
      (fun (backend, blocks) ->
        let c = offheap_case ~backend ~blocks in
        Printf.printf
          "  [%8s] 2^%2.0f blocks: lazy ready %8.0f us, eager %12.0f us, first touch \
           %d/%d ranges (%d pages), heap %6.1f MB, rss %7.1f MB\n%!"
          c.oh_backend
          (Float.log2 (float_of_int blocks))
          c.oh_lazy_ready_us c.oh_eager_ready_us c.oh_touched_ranges c.oh_total_ranges
          c.oh_first_touch_pages c.oh_heap_mb c.oh_rss_mb;
        c)
      cases
  in
  let big r = r.oh_backend = "bigarray" in
  let bigs = List.filter big rows in
  let smallest = List.hd bigs in
  let largest = List.nth bigs (List.length bigs - 1) in
  let lazy_ratio = largest.oh_lazy_ready_us /. smallest.oh_lazy_ready_us in
  let eager_ratio = largest.oh_eager_ready_us /. smallest.oh_eager_ready_us in
  Printf.printf
    "  lazy ready largest/smallest: %.2fx (eager: %.1fx) over a %dx size spread\n"
    lazy_ratio eager_ratio (largest.oh_blocks / smallest.oh_blocks);
  let oc = open_out "BENCH_offheap.json" in
  Printf.fprintf oc
    {|{
  "benchmark": "off-heap page store: lazy incremental mount vs eager full scan",
  "workload": "16 object-backed ranges, one committed CP, snapshot, remount lazy + eager, one 8-block first touch",
  "lazy_ready_ratio_largest_vs_smallest": %.3f,
  "eager_ready_ratio_largest_vs_smallest": %.1f,
  "cases": [
%s
  ]
}
|}
    lazy_ratio eager_ratio
    (String.concat ",\n" (List.map offheap_case_json rows));
  close_out oc;
  print_endline "  wrote BENCH_offheap.json";
  let fail = ref false in
  if lazy_ratio > 2.5 then begin
    Printf.eprintf "FAIL: lazy mount-ready time grew %.2fx with aggregate size (expected ~1x)\n"
      lazy_ratio;
    fail := true
  end;
  if eager_ratio < 8.0 || eager_ratio < 10.0 *. lazy_ratio then begin
    Printf.eprintf
      "FAIL: eager full-scan ready grew only %.1fx over a %dx size spread (lazy %.2fx)\n"
      eager_ratio (largest.oh_blocks / smallest.oh_blocks) lazy_ratio;
    fail := true
  end;
  List.iter
    (fun c ->
      if 2 * c.oh_touched_ranges >= c.oh_total_ranges then begin
        Printf.eprintf
          "FAIL: first touch materialized %d/%d ranges (expected a strict minority)\n"
          c.oh_touched_ranges c.oh_total_ranges;
        fail := true
      end)
    rows;
  let bitmap_mb = float_of_int (largest.oh_blocks / 8) /. 1048576.0 in
  if largest.oh_heap_mb > bitmap_mb /. 4.0 then begin
    Printf.eprintf
      "FAIL: billion-block bigarray case kept %.1f MB on the OCaml heap (budget %.1f MB)\n"
      largest.oh_heap_mb (bitmap_mb /. 4.0);
    fail := true
  end;
  if !fail then exit 1

(* --- scrub: persisted-state integrity plane ---

   Three claims, all on the mmap backend: (1) sealing adds nothing to the
   allocation consume window (zero minor words) and under 5% to CP time;
   (2) injected bit-rot is classified torn, a lost write stale, and one
   scrub pass heals either back to a clean Iron check; (3) after the
   heal's sidecars are committed, a fresh-process remount verifies the
   directory damage-free.  Only deterministic outcomes go into
   BENCH_scrub.json — the timing ratio is asserted here, not recorded. *)

let scrub_dir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) name in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else Unix.mkdir dir 0o700;
  dir

let scrub_config ~seed =
  let rg =
    {
      Wafl_core.Config.media = Wafl_core.Config.Hdd Wafl_device.Profile.default_hdd;
      data_devices = 4;
      parity_devices = 1;
      device_blocks = 8192;
      aa_stripes = Some 512;
    }
  in
  Wafl_core.Config.make ~raid_groups:[ rg; rg ]
    ~vols:[ Wafl_core.Config.default_vol ~name:"vol0" ~blocks:65536 ]
    ~seed ()

let scrub_stage_and_cp fs rng ~ops =
  let vol = (Wafl_core.Fs.vols fs).(0) in
  for _ = 1 to ops do
    Wafl_core.Fs.stage_write fs ~vol ~file:(Wafl_util.Rng.int rng 16)
      ~offset:(Wafl_util.Rng.int rng 2048)
  done;
  ignore (Wafl_core.Fs.run_cp fs)

let in_scrub_dir dir f =
  Wafl_bitmap.Pagestore.with_default Wafl_bitmap.Pagestore.Bigarray (fun () ->
      Wafl_bitmap.Pagestore.with_mmap_dir dir f)

(* Same ring-served window as the alloc bench, but file-mapped and with
   sealing live: the CRC work rides the CP flush, never the consume. *)
let scrub_zero_alloc_words dir =
  in_scrub_dir dir (fun () ->
      let agg = Wafl_core.Aggregate.create (alloc_config Common.Quick) in
      let w = Wafl_core.Write_alloc.create agg ~rng:(Wafl_util.Rng.create ~seed:7) in
      let dst = Array.make 256 0 in
      ignore (Wafl_core.Write_alloc.allocate_pvbns_into w ~dst 256);
      let before = Gc.minor_words () in
      ignore (Wafl_core.Write_alloc.allocate_pvbns_into w ~dst 256);
      Gc.minor_words () -. before)

let scrub_cp_secs ~sealed ~cps ~ops =
  let dir = scrub_dir "wafl_bench_scrub_cp" in
  Wafl_bitmap.Integrity.set_enabled sealed;
  Fun.protect
    ~finally:(fun () -> Wafl_bitmap.Integrity.set_enabled true)
    (fun () ->
      in_scrub_dir dir (fun () ->
          let fs = Wafl_core.Fs.create (scrub_config ~seed:3) in
          let rng = Wafl_util.Rng.create ~seed:5 in
          scrub_stage_and_cp fs rng ~ops;
          scrub_stage_and_cp fs rng ~ops;
          let t0 = Unix.gettimeofday () in
          for _ = 1 to cps do
            scrub_stage_and_cp fs rng ~ops
          done;
          Unix.gettimeofday () -. t0))

(* Interleave sealed/unsealed pairs so slow drift (page-cache writeback,
   CPU frequency) lands on both sides equally, and keep the best of each. *)
let scrub_cp_pair n ~cps ~ops =
  let unsealed = ref infinity and sealed = ref infinity in
  for _ = 1 to n do
    unsealed := Float.min !unsealed (scrub_cp_secs ~sealed:false ~cps ~ops);
    sealed := Float.min !sealed (scrub_cp_secs ~sealed:true ~cps ~ops)
  done;
  (!unsealed, !sealed)

(* Inject one fault at its exact generation, classify the damaged page,
   scrub-heal, commit the healed sidecars, then remount as a fresh
   process and verify the directory is damage-free end to end. *)
let scrub_e2e ~spec ~cps_to_fire ~expect =
  let dir = scrub_dir "wafl_bench_scrub_e2e" in
  let spec =
    match Wafl_fault.Fault.spec_of_string spec with
    | Ok s -> s
    | Error msg ->
      Printf.eprintf "bench scrub: bad spec: %s\n" msg;
      exit 2
  in
  Wafl_fault.Fault.install_default spec;
  let detected, bad, healed, clean =
    Fun.protect ~finally:Wafl_fault.Fault.uninstall_default (fun () ->
        in_scrub_dir dir (fun () ->
            let fs = Wafl_core.Fs.create (scrub_config ~seed:11) in
            let rng = Wafl_util.Rng.create ~seed:13 in
            for _ = 1 to cps_to_fire do
              scrub_stage_and_cp fs rng ~ops:400
            done;
            let store =
              Wafl_bitmap.Metafile.store
                (Wafl_core.Aggregate.metafile (Wafl_core.Fs.aggregate fs))
            in
            let detected = Wafl_bitmap.Integrity.verify_page store 0 = Some expect in
            let stats = Wafl_core.Scrub.pass fs ~budget:8192 in
            let clean = Wafl_core.Iron.check fs = [] in
            (* one more CP persists the healed page's sidecar, so the
               remount below must find nothing *)
            scrub_stage_and_cp fs rng ~ops:400;
            (detected, stats.Wafl_core.Scrub.bad_pages, stats.Wafl_core.Scrub.healed, clean)))
  in
  let remount_bad =
    in_scrub_dir dir (fun () ->
        let fs = Wafl_core.Fs.create (scrub_config ~seed:11) in
        let r = Wafl_core.Mount.verify_pagestores fs in
        r.Wafl_core.Mount.torn_pages + r.Wafl_core.Mount.stale_pages)
  in
  (detected, bad, healed, clean, remount_bad)

let run_scrub () =
  Common.banner "Persisted-state integrity: sealing overhead, scrub heal, verified remount";
  let zero_words = scrub_zero_alloc_words (scrub_dir "wafl_bench_scrub_zero") in
  Printf.printf "  sealed consume window: %.0f minor heap words (mmap backend)\n" zero_words;
  let cps = 8 and ops = 8000 in
  let unsealed, sealed = scrub_cp_pair 5 ~cps ~ops in
  let overhead_pct = (sealed -. unsealed) /. unsealed *. 100.0 in
  (* small epsilon absorbs timer noise on sub-ms CP batches *)
  let overhead_ok = sealed <= (unsealed *. 1.05) +. 0.005 in
  Printf.printf "  CP time over %d CPs: unsealed %.1f ms, sealed %.1f ms (%+.1f%%)\n" cps
    (unsealed *. 1e3) (sealed *. 1e3) overhead_pct;
  let rot_detected, rot_bad, rot_healed, rot_clean, rot_remount_bad =
    scrub_e2e ~spec:"rot=0:0@1" ~cps_to_fire:1 ~expect:Wafl_bitmap.Integrity.Torn
  in
  Printf.printf
    "  bit-rot @gen1: torn=%b, scrub found %d bad, healed %d, iron clean=%b, remount bad=%d\n"
    rot_detected rot_bad rot_healed rot_clean rot_remount_bad;
  let lost_detected, lost_bad, lost_healed, lost_clean, lost_remount_bad =
    scrub_e2e ~spec:"lost=0:0@2" ~cps_to_fire:2 ~expect:Wafl_bitmap.Integrity.Stale
  in
  Printf.printf
    "  lost write @gen2: stale=%b, scrub found %d bad, healed %d, iron clean=%b, remount \
     bad=%d\n"
    lost_detected lost_bad lost_healed lost_clean lost_remount_bad;
  let b2i b = if b then 1 else 0 in
  let oc = open_out "BENCH_scrub.json" in
  Printf.fprintf oc
    {|{
  "benchmark": "persisted-state integrity: sealing, scrubber, verified remount",
  "workload": "mmap-backed 64k-block aggregate; staged-write CPs; rot/lost injection at exact generations",
  "consume_minor_words": %.0f,
  "sealed_cp_overhead_ok": %d,
  "rot": {
    "classified_torn": %d,
    "bad_pages": %d,
    "healed": %d,
    "iron_clean_after_heal": %d,
    "remount_bad_pages": %d
  },
  "lost": {
    "classified_stale": %d,
    "bad_pages": %d,
    "healed": %d,
    "iron_clean_after_heal": %d,
    "remount_bad_pages": %d
  }
}
|}
    zero_words (b2i overhead_ok) (b2i rot_detected) rot_bad rot_healed (b2i rot_clean)
    rot_remount_bad (b2i lost_detected) lost_bad lost_healed (b2i lost_clean)
    lost_remount_bad;
  close_out oc;
  print_endline "  wrote BENCH_scrub.json";
  let fail = ref false in
  if zero_words <> 0.0 then begin
    Printf.eprintf "FAIL: sealed consume window allocated %.0f minor words (expected 0)\n"
      zero_words;
    fail := true
  end;
  if not overhead_ok then begin
    Printf.eprintf "FAIL: sealing added %.1f%% CP time (budget 5%%)\n" overhead_pct;
    fail := true
  end;
  if not (rot_detected && rot_bad = 1 && rot_healed = 1 && rot_clean && rot_remount_bad = 0)
  then begin
    Printf.eprintf "FAIL: bit-rot closure broke (torn=%b bad=%d healed=%d clean=%b remount=%d)\n"
      rot_detected rot_bad rot_healed rot_clean rot_remount_bad;
    fail := true
  end;
  if
    not
      (lost_detected && lost_bad = 1 && lost_healed = 1 && lost_clean
     && lost_remount_bad = 0)
  then begin
    Printf.eprintf
      "FAIL: lost-write closure broke (stale=%b bad=%d healed=%d clean=%b remount=%d)\n"
      lost_detected lost_bad lost_healed lost_clean lost_remount_bad;
    fail := true
  end;
  if !fail then exit 1

(* --- streams: write-temperature segregation WA gate (PR 9) ---

   Runs the fig8-streams ablation (HDD-sized AA / erase-block AA /
   erase-block AA + 4 temperature classes on 4 FTL streams) and gates:
   segregated WA must beat both the unsegregated erase-block variant and
   the paper's published 1.46; and the routed allocation consume window —
   every class row — must still allocate zero minor-heap words.  Writes
   the per-variant and per-stream numbers to BENCH_streams.json. *)

let streams_wa_gate = 1.46

(* Same ring-served window as the alloc bench, but with 4 temperature
   classes configured: each class row's warm second call must be served
   entirely from its own ring, with no per-block allocation. *)
let streams_zero_alloc_words () =
  Wafl_core.Config.with_default_streams
    { Wafl_core.Config.temp_classes = 4; ssd_streams = 4; wear_bias = 2;
      meta_file = None }
    (fun () ->
      let agg = Wafl_core.Aggregate.create (alloc_config Common.Quick) in
      let w = Wafl_core.Write_alloc.create agg ~rng:(Wafl_util.Rng.create ~seed:7) in
      let dst = Array.make 256 0 in
      (* [?cls] boxing would charge 2 minor words per call to the window;
         pre-build the options so only the allocator itself is measured *)
      let cls_opts = Array.init 4 (fun c -> Some c) in
      for cls = 0 to 3 do
        ignore
          (Wafl_core.Write_alloc.allocate_pvbns_into ?cls:cls_opts.(cls) w ~dst 256)
      done;
      let before = Gc.minor_words () in
      for cls = 0 to 3 do
        ignore
          (Wafl_core.Write_alloc.allocate_pvbns_into ?cls:cls_opts.(cls) w ~dst 256)
      done;
      Gc.minor_words () -. before)

let streams_variant_json (r : Fig8_streams.result) =
  let stream_json (s : Fig8_streams.stream_row) =
    Printf.sprintf
      {|        { "stream": %d, "host": %d, "device": %d, "relocated": %d, "erases": %d, "wa": %.4f }|}
      s.Fig8_streams.stream s.Fig8_streams.host s.Fig8_streams.device
      s.Fig8_streams.relocated s.Fig8_streams.erases s.Fig8_streams.wa
  in
  Printf.sprintf
    {|    {
      "variant": "%s",
      "aa_stripes": %d,
      "temp_classes": %d,
      "ssd_streams": %d,
      "wear_bias": %d,
      "write_amplification": %.4f,
      "wear": { "min": %d, "max": %d },
      "streams": [
%s
      ]
    }|}
    (Fig8_streams.variant_name r.Fig8_streams.variant)
    r.Fig8_streams.aa_stripes r.Fig8_streams.spec.Wafl_core.Config.temp_classes
    r.Fig8_streams.spec.Wafl_core.Config.ssd_streams
    r.Fig8_streams.spec.Wafl_core.Config.wear_bias r.Fig8_streams.write_amp
    r.Fig8_streams.wear_min r.Fig8_streams.wear_max
    (String.concat ",\n" (List.map stream_json r.Fig8_streams.per_stream))

let run_streams ~scale () =
  Common.banner
    "Write-temperature segregation: multi-stream FTL write-amplification gate";
  let zero_words = streams_zero_alloc_words () in
  Printf.printf "  routed consume window (4 class rows): %.0f minor heap words\n"
    zero_words;
  let results = Fig8_streams.run ~scale () in
  let find v = Fig8_streams.find results v in
  let small = find Fig8_streams.Small_aa in
  let large = find Fig8_streams.Large_aa in
  let seg = find Fig8_streams.Large_aa_segregated in
  List.iter
    (fun (r : Fig8_streams.result) ->
      Printf.printf "  %-44s WA %.4f  wear %d..%d\n"
        (Fig8_streams.variant_name r.Fig8_streams.variant)
        r.Fig8_streams.write_amp r.Fig8_streams.wear_min r.Fig8_streams.wear_max)
    results;
  let scale_name = match scale with Common.Quick -> "quick" | Common.Full -> "full" in
  let oc = open_out "BENCH_streams.json" in
  Printf.fprintf oc
    {|{
  "benchmark": "write-temperature segregation and multi-stream FTL: SSD write amplification",
  "workload": "all-SSD aggregate aged to 85%% with skewed 4KiB overwrites (90%% of writes on 2%% of the working set, metadata trickle on file 0), then %d CPs of the same skew",
  "scale": "%s",
  "wa_gate": %.2f,
  "zero_alloc_minor_words_routed": %.0f,
  "segregated_vs_unsegregated_wa": { "unsegregated": %.4f, "segregated": %.4f },
  "variants": [
%s
  ]
}
|}
    (fst (Fig8_streams.measurement scale))
    scale_name streams_wa_gate zero_words large.Fig8_streams.write_amp
    seg.Fig8_streams.write_amp
    (String.concat ",\n" (List.map streams_variant_json results));
  close_out oc;
  print_endline "  wrote BENCH_streams.json";
  let fail = ref false in
  if zero_words <> 0.0 then begin
    Printf.eprintf
      "FAIL: routed consume window allocated %.0f minor words (expected 0)\n" zero_words;
    fail := true
  end;
  if seg.Fig8_streams.write_amp >= large.Fig8_streams.write_amp then begin
    Printf.eprintf "FAIL: segregated WA %.4f >= unsegregated %.4f\n"
      seg.Fig8_streams.write_amp large.Fig8_streams.write_amp;
    fail := true
  end;
  (* the absolute paper-point gate is a quick-scale claim; at full scale
     worst-case relocation pricing inflates every fig-8 WA figure *)
  if scale = Common.Quick && seg.Fig8_streams.write_amp >= streams_wa_gate then begin
    Printf.eprintf "FAIL: segregated WA %.4f >= paper gate %.2f\n"
      seg.Fig8_streams.write_amp streams_wa_gate;
    fail := true
  end;
  if small.Fig8_streams.write_amp <= large.Fig8_streams.write_amp then begin
    Printf.eprintf "FAIL: small-AA WA %.4f <= erase-block WA %.4f (fig 8 inverted)\n"
      small.Fig8_streams.write_amp large.Fig8_streams.write_amp;
    fail := true
  end;
  if !fail then exit 1

(* --- latency: request-level latency observability (PR 10) ---

   Four gates on the latency subsystem plus a model-vs-measured curve:
   the Hdrhist record path must allocate zero minor-heap words per op,
   the uninstalled hooks must stay branch-only, an installed recorder
   must add <5% to end-to-end CP time, and an injected device-latency
   spike run must produce a tail exemplar blaming cp.device_flush and
   breach a tight SLO.  The curve sweeps the closed-loop batch size and
   checks the measured per-op latencies share the analytic M/G/1 sweep's
   hockey-stick shape (monotone latency, capacity asymptote).  Writes
   BENCH_latency.json. *)

(* One aged sequential-write system, [cps] CPs of [ops] staged writes
   each, run with [tel] installed; returns the per-CP reports. *)
let lat_run_workload ~tel ~cps ~ops () =
  let open Wafl_core in
  let rg = Common.hdd_raid_group Common.Quick in
  let agg_blocks = rg.Config.data_devices * rg.Config.device_blocks in
  let config =
    Config.make ~raid_groups:[ rg ]
      ~vols:
        [ { Config.name = "seq"; blocks = agg_blocks; aa_blocks = None;
            policy = Config.Best_aa } ]
      ~aggregate_policy:Config.Best_aa ~seed:7 ()
  in
  let fs = Fs.create config in
  let workload = Wafl_workload.Sequential.create fs (Fs.vol fs "seq") () in
  Wafl_telemetry.Telemetry.with_installed tel (fun () ->
      List.init cps (fun _ -> Wafl_workload.Sequential.step workload ops))

let latency_record_path () =
  let lat = Wafl_telemetry.Latency.create () in
  let vol = Wafl_telemetry.Latency.vol_slot lat ~uid:1 ~name:"bench" in
  let record_n n =
    for i = 1 to n do
      Wafl_telemetry.Latency.record lat ~op:Wafl_telemetry.Latency.Write ~vol
        ((i * 7919) land 0xFFFFFF)
    done
  in
  record_n 100_000 (* warm: domain shard and histogram cells exist *);
  let before = Gc.minor_words () in
  record_n 100_000;
  let words = (Gc.minor_words () -. before) /. 100_000.0 in
  let iters = 2_000_000 in
  let t0 = Unix.gettimeofday () in
  record_n iters;
  let ns = (Unix.gettimeofday () -. t0) /. float_of_int iters *. 1e9 in
  (words, ns)

let latency_uninstalled_hooks () =
  (* nothing installed: lat_active is one match on a global ref *)
  let iters = 1_000_000 in
  let hits = ref 0 in
  let loop () =
    for _ = 1 to iters do
      if Wafl_telemetry.Telemetry.lat_active () then incr hits
    done
  in
  loop ();
  let before = Gc.minor_words () in
  loop ();
  let words = Gc.minor_words () -. before in
  let t0 = Unix.gettimeofday () in
  loop ();
  let ns = (Unix.gettimeofday () -. t0) /. float_of_int iters *. 1e9 in
  assert (!hits = 0);
  (words, ns)

(* Interleave plain/with-latency pairs (scrub_cp_pair's trick) so slow
   drift lands on both sides equally; keep the best of each. *)
let latency_cp_overhead () =
  let cps = 20 and ops = 1000 in
  let time ~with_lat =
    let lat = if with_lat then Some (Wafl_telemetry.Latency.create ()) else None in
    let tel = Wafl_telemetry.Telemetry.create ?latency:lat () in
    let t0 = Unix.gettimeofday () in
    ignore (lat_run_workload ~tel ~cps ~ops ());
    Unix.gettimeofday () -. t0
  in
  ignore (time ~with_lat:false) (* warm up *);
  ignore (time ~with_lat:true);
  let plain = ref infinity and with_lat = ref infinity in
  for _ = 1 to 5 do
    plain := Float.min !plain (time ~with_lat:false);
    with_lat := Float.min !with_lat (time ~with_lat:true)
  done;
  (!plain, !with_lat)

let latency_spike_run () =
  let spec =
    match Wafl_fault.Fault.spec_of_string "seed=9,spike=0.9:50000" with
    | Ok s -> s
    | Error msg ->
      Printf.eprintf "bench latency: bad spike spec: %s\n" msg;
      exit 2
  in
  let objective =
    match Wafl_telemetry.Slo.objective ~name:"writes" ~threshold_ms:5.0 ~target:0.999 with
    | Ok o -> o
    | Error msg ->
      Printf.eprintf "bench latency: bad objective: %s\n" msg;
      exit 2
  in
  Wafl_fault.Fault.install_default spec;
  Fun.protect ~finally:Wafl_fault.Fault.uninstall_default (fun () ->
      let lat = Wafl_telemetry.Latency.create ~slo:(Wafl_telemetry.Slo.create [ objective ]) () in
      let tel = Wafl_telemetry.Telemetry.create ~latency:lat () in
      ignore (lat_run_workload ~tel ~cps:30 ~ops:500 ());
      let exs = Wafl_telemetry.Latency.exemplars lat in
      let device_blamed =
        List.exists
          (fun e -> e.Wafl_telemetry.Latency.ex_phase = Wafl_telemetry.Span.Device_flush)
          exs
      in
      let breach =
        List.exists
          (fun r -> r.Wafl_telemetry.Slo.r_breach)
          (Wafl_telemetry.Latency.last_slo_reports lat)
      in
      let _, _, p999 = Wafl_telemetry.Latency.quantiles_ms lat in
      (List.length exs, device_blamed, breach, p999))

(* Sweep the closed-loop batch size and compare the measured modeled
   latencies against the analytic M/G/1 sweep built from the same CPs'
   cost reports: both must show the fig-9 hockey-stick — latency rising
   monotonically as offered work grows, throughput flattening into the
   service-capacity asymptote. *)
let latency_curve () =
  let batches = [ 100; 200; 400; 800; 1600 ] in
  let measure n =
    let lat = Wafl_telemetry.Latency.create () in
    let tel = Wafl_telemetry.Telemetry.create ~latency:lat () in
    let reports = lat_run_workload ~tel ~cps:12 ~ops:n () in
    let costs = Wafl_sim.Cost_model.combine (List.map Wafl_sim.Cost_model.of_report reports) in
    let thr =
      1e6 *. float_of_int costs.Wafl_sim.Cost_model.ops
      /. costs.Wafl_sim.Cost_model.cp_duration_us
    in
    let p50, _, _ = Wafl_telemetry.Latency.quantiles_ms lat in
    (n, thr, p50, costs)
  in
  let points = List.map measure batches in
  let rec monotone = function
    | (_, _, a, _) :: ((_, _, b, _) :: _ as rest) -> a <= b +. 1e-9 && monotone rest
    | _ -> true
  in
  let monotone_latency = monotone points in
  let _, thr_max, p50_max, costs_max =
    List.nth points (List.length points - 1)
  in
  let curve = Wafl_sim.Load.sweep ~label:"measured service demand" costs_max in
  let peak = Wafl_sim.Load.peak_throughput curve in
  let capacity_ok = thr_max >= peak /. 2.0 && thr_max <= peak *. 2.0 in
  (* the analytic flat part must sit below the measured saturated tail *)
  let midload_ok, midload_ms =
    match Wafl_sim.Load.latency_at_load_ms curve (peak *. 0.5) with
    | Ok l -> (l < p50_max, l)
    | Error msg ->
      Printf.printf "  mid-load lookup failed: %s\n" msg;
      (false, 0.0)
  in
  (* out-of-range loads must explain themselves (the satellite fix) *)
  let overload_rejected =
    match Wafl_sim.Load.latency_at_load_ms curve (peak *. 2.0) with
    | Ok _ -> false
    | Error msg ->
      Printf.printf "  overload correctly rejected: %s\n" msg;
      true
  in
  (points, peak, monotone_latency, capacity_ok, midload_ok, midload_ms, overload_rejected)

let run_latency () =
  Common.banner "Request-level latency: record path, CP overhead, spike blame, curve";
  let rec_words, rec_ns = latency_record_path () in
  Printf.printf "  record path: %.2f minor words/op, %.1f ns/record\n" rec_words rec_ns;
  let hook_words, hook_ns = latency_uninstalled_hooks () in
  Printf.printf "  uninstalled hook: %.0f minor words over 1M calls, %.1f ns/call\n"
    hook_words hook_ns;
  let plain_s, with_lat_s = latency_cp_overhead () in
  let overhead_pct = (with_lat_s -. plain_s) /. plain_s *. 100.0 in
  (* small epsilon absorbs timer noise on sub-ms CP batches *)
  let overhead_ok = with_lat_s <= (plain_s *. 1.05) +. 0.005 in
  Printf.printf "  e2e 20 CPs x 1000 ops: plain %.1f ms, with latency %.1f ms (%+.1f%%)\n"
    (plain_s *. 1e3) (with_lat_s *. 1e3) overhead_pct;
  let n_exemplars, device_blamed, slo_breach, spike_p999 = latency_spike_run () in
  Printf.printf
    "  spike run: %d exemplars, device_flush blamed=%b, slo breach=%b, p999 %.1f ms\n"
    n_exemplars device_blamed slo_breach spike_p999;
  let points, peak, monotone_latency, capacity_ok, midload_ok, midload_ms, overload_rejected
      =
    latency_curve ()
  in
  List.iter
    (fun (n, thr, p50, _) ->
      Printf.printf "  batch %5d ops/CP: %8.0f ops/s  p50 %8.2f ms\n" n thr p50)
    points;
  Printf.printf
    "  analytic peak %.0f ops/s, mid-load latency %.2f ms; monotone=%b capacity_ok=%b\n"
    peak midload_ms monotone_latency capacity_ok;
  let b2i b = if b then 1 else 0 in
  let point_json (n, thr, p50, _) =
    Printf.sprintf
      {|    { "ops_per_cp": %d, "throughput_ops_s": %.0f, "p50_ms": %.2f }|} n thr p50
  in
  let oc = open_out "BENCH_latency.json" in
  Printf.fprintf oc
    {|{
  "benchmark": "request-level latency observability: record path, CP overhead, spike attribution, closed-loop curve",
  "workload": "sequential staged-write CPs on a quick-scale HDD aggregate; modeled per-op clock",
  "record_minor_words_per_op": %.2f,
  "uninstalled_hook_minor_words": %.0f,
  "cp_overhead_ok": %d,
  "spike": {
    "exemplars": %d,
    "device_flush_blamed": %d,
    "slo_breach": %d
  },
  "curve": {
    "monotone_latency": %d,
    "capacity_ok": %d,
    "midload_below_saturated_tail": %d,
    "overload_rejected": %d,
    "points": [
%s
  ]
  }
}
|}
    rec_words hook_words (b2i overhead_ok) n_exemplars (b2i device_blamed)
    (b2i slo_breach) (b2i monotone_latency) (b2i capacity_ok) (b2i midload_ok)
    (b2i overload_rejected)
    (String.concat ",\n" (List.map point_json points));
  close_out oc;
  print_endline "  wrote BENCH_latency.json";
  let fail = ref false in
  if rec_words <> 0.0 then begin
    Printf.eprintf "FAIL: record path allocated %.2f minor words/op (expected 0)\n"
      rec_words;
    fail := true
  end;
  if hook_words <> 0.0 then begin
    Printf.eprintf "FAIL: uninstalled hook allocated %.0f minor words (expected 0)\n"
      hook_words;
    fail := true
  end;
  if not overhead_ok then begin
    Printf.eprintf "FAIL: latency recording added %.1f%% CP time (budget 5%%)\n"
      overhead_pct;
    fail := true
  end;
  if not (n_exemplars > 0 && device_blamed) then begin
    Printf.eprintf
      "FAIL: spike run captured %d exemplars, device_flush blamed=%b (expected blame)\n"
      n_exemplars device_blamed;
    fail := true
  end;
  if not slo_breach then begin
    Printf.eprintf "FAIL: spike run did not breach the 5ms/0.999 SLO\n";
    fail := true
  end;
  if not (monotone_latency && capacity_ok && midload_ok && overload_rejected) then begin
    Printf.eprintf
      "FAIL: curve shape (monotone=%b capacity_ok=%b midload_ok=%b overload_rejected=%b)\n"
      monotone_latency capacity_ok midload_ok overload_rejected;
    fail := true
  end;
  if !fail then exit 1

(* --- regress: diff two metric/time-series JSON snapshots ---

   bench/main.exe regress BASELINE.json NEW.json [--threshold FACTOR]

   Every numeric and boolean leaf the two documents share is compared by
   its dotted path (array indices become path components).  A numeric
   leaf whose values differ by more than FACTOR in either direction
   (default 2.0) or change sign, a boolean leaf whose value changes, and
   any leaf that exists in the baseline but not in the new snapshot is a
   regression; any regression exits 1 so CI can gate fresh bench output
   against the committed BENCH_*.json baselines.  Leaves only present in
   the new snapshot are reported but allowed — new metrics are not
   regressions. *)

let regress_load path =
  let contents =
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with Sys_error msg ->
      Printf.eprintf "bench regress: cannot read %s: %s\n" path msg;
      exit 2
  in
  match Wafl_util.Json.parse contents with
  | Ok v -> v
  | Error msg ->
    Printf.eprintf "bench regress: %s: %s\n" path msg;
    exit 2

let run_regress argv =
  let usage () =
    prerr_endline "usage: bench/main.exe regress BASELINE.json NEW.json [--threshold FACTOR]";
    exit 2
  in
  let rec parse files threshold = function
    | [] -> (List.rev files, threshold)
    | "--threshold" :: v :: rest -> (
      match float_of_string_opt v with
      | Some f when f >= 1.0 -> parse files f rest
      | _ ->
        Printf.eprintf "bench regress: --threshold expects a factor >= 1.0 (got %S)\n" v;
        exit 2)
    | "--threshold" :: [] -> usage ()
    | a :: rest -> parse (a :: files) threshold rest
  in
  let files, threshold = parse [] 2.0 argv in
  let base_path, new_path =
    match files with [ b; n ] -> (b, n) | _ -> usage ()
  in
  let dotted leaves = List.map (fun (p, x) -> (String.concat "." p, x)) leaves in
  let base_doc = regress_load base_path and fresh_doc = regress_load new_path in
  let base = dotted (Wafl_util.Json.number_leaves base_doc)
  and fresh = dotted (Wafl_util.Json.number_leaves fresh_doc) in
  let regressions = ref 0 in
  let compared = ref 0 in
  let flag fmt = incr regressions; Printf.printf fmt in
  let fresh_bools = dotted (Wafl_util.Json.bool_leaves fresh_doc) in
  List.iter
    (fun (path, a) ->
      match List.assoc_opt path fresh_bools with
      | None -> flag "  MISSING   %-52s (baseline %b)\n" path a
      | Some b ->
        incr compared;
        if a <> b then flag "  FLIPPED   %-52s %b -> %b\n" path a b)
    (dotted (Wafl_util.Json.bool_leaves base_doc));
  List.iter
    (fun (path, a) ->
      match List.assoc_opt path fresh with
      | None -> flag "  MISSING   %-52s (baseline %g)\n" path a
      | Some b ->
        incr compared;
        if a <> b then begin
          let eps = 1e-9 in
          if (a < 0.0) <> (b < 0.0) && Float.abs a > eps && Float.abs b > eps then
            flag "  SIGN FLIP %-52s %g -> %g\n" path a b
          else begin
            let r = (Float.abs b +. eps) /. (Float.abs a +. eps) in
            let factor = Float.max r (1.0 /. r) in
            if factor > threshold then
              flag "  REGRESSED %-52s %g -> %g (%.2fx, threshold %.2fx)\n" path a b factor
                threshold
          end
        end)
    base;
  List.iter
    (fun (path, b) ->
      if List.assoc_opt path base = None then
        Printf.printf "  new leaf  %-52s %g (allowed)\n" path b)
    fresh;
  Printf.printf "regress: %d shared leaves compared, %d regression(s) (threshold %.2fx)\n"
    !compared !regressions threshold;
  if !regressions > 0 then exit 1

let main_bench () =
  (* The adjacent pair "alloc par" names the allocation front-end
     benchmark, not the "alloc" and "par" benchmarks back to back. *)
  let rec fuse = function
    | "alloc" :: "par" :: rest -> "allocpar" :: fuse rest
    | a :: rest -> a :: fuse rest
    | [] -> []
  in
  let args = fuse (Array.to_list Sys.argv) in
  let scale = if List.mem "full" args then Common.Full else Common.Quick in
  let has name = List.mem name args in
  let specific =
    [
      "micro"; "telemetry"; "alloc"; "faults"; "par"; "allocpar"; "offheap"; "scrub";
      "streams"; "latency"; "fig6"; "fig7"; "fig8"; "fig9"; "fig10"; "scalars";
      "ablation";
    ]
  in
  let run_all = not (List.exists (fun a -> List.mem a specific) args) in
  if run_all || has "fig6" then Fig6.print (Fig6.run ~scale ());
  if run_all || has "fig7" then Fig7.print (Fig7.run ~scale ());
  if run_all || has "fig8" then Fig8.print (Fig8.run ~scale ());
  if run_all || has "fig9" then Fig9.print (Fig9.run ~scale ());
  if run_all || has "fig10" then Fig10.print (Fig10.run ~scale ());
  if run_all || has "scalars" then Scalars.print (Scalars.run ~scale ());
  if run_all || has "ablation" then Ablation.print (Ablation.run ~scale ());
  if run_all || has "micro" then run_micro ();
  if run_all || has "telemetry" then run_telemetry_overhead ();
  if run_all || has "alloc" then run_alloc ~scale ();
  if run_all || has "faults" then run_faults ~scale ();
  if run_all || has "par" then run_par ~scale ();
  if run_all || has "allocpar" then run_allocpar ~scale ();
  if run_all || has "offheap" then run_offheap ();
  if run_all || has "scrub" then run_scrub ();
  if run_all || has "streams" then run_streams ~scale ();
  if run_all || has "latency" then run_latency ()

let () =
  match Array.to_list Sys.argv with
  | _ :: "regress" :: rest -> run_regress rest
  | _ -> main_bench ()
