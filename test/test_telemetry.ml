(* Tests for Wafl_telemetry: registry, tracer, exporters, and the
   zero-allocation guarantee on the disabled pick path. *)

open Wafl_telemetry

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  n = 0 || at 0

(* --- Registry --- *)

let test_counter () =
  let r = Registry.create () in
  let c = Registry.counter r "cp.count" in
  check_int "fresh" 0 (Registry.count c);
  Registry.incr c;
  Registry.add c 41;
  check_int "incr+add" 42 (Registry.count c);
  (* get-or-register returns the same underlying counter *)
  Registry.incr (Registry.counter r "cp.count");
  check_int "shared handle" 43 (Registry.count c);
  Alcotest.check_raises "negative add" (Invalid_argument "Registry.add: negative increment")
    (fun () -> Registry.add c (-1))

let test_gauge () =
  let r = Registry.create () in
  let g = Registry.gauge r "err" in
  Registry.set g 0.5;
  Alcotest.(check (float 1e-9)) "set" 0.5 (Registry.value g);
  Registry.set_max g 0.25;
  Alcotest.(check (float 1e-9)) "set_max keeps larger" 0.5 (Registry.value g);
  Registry.set_max g 0.75;
  Alcotest.(check (float 1e-9)) "set_max takes larger" 0.75 (Registry.value g)

let test_kind_clash () =
  let r = Registry.create () in
  ignore (Registry.counter r "x");
  check_bool "gauge on counter name raises" true
    (try
       ignore (Registry.gauge r "x");
       false
     with Invalid_argument _ -> true)

let test_histogram_buckets () =
  let r = Registry.create () in
  let h = Registry.histogram r "lat" in
  List.iter (Registry.observe h) [ -5; 0; 1; 1; 2; 63; 64; 65; 1024; 1_000_000 ];
  let m = Registry.merged h in
  check_int "observations" 10 (Hdrhist.count m);
  check_int "sum (negatives clamp to 0)"
    (0 + 0 + 1 + 1 + 2 + 63 + 64 + 65 + 1024 + 1_000_000)
    (Hdrhist.sum m);
  check_int "min" 0 (Hdrhist.min_value m);
  check_int "max" 1_000_000 (Hdrhist.max_value m);
  (* the Hdrhist layout: unit-width buckets below 64, then 32 linear
     sub-buckets per power of two *)
  let buckets = ref [] in
  Hdrhist.iter_nonempty m (fun ~lo ~hi ~count -> buckets := (lo, hi, count) :: !buckets);
  let buckets = List.rev !buckets in
  Alcotest.(check (list (triple int int int)))
    "exact buckets below 128"
    [ (0, 0, 2); (1, 1, 2); (2, 2, 1); (63, 63, 1); (64, 65, 2) ]
    (List.filter (fun (lo, _, _) -> lo < 128) buckets);
  check_bool "1024 has its own bucket" true (List.mem (1024, 1055, 1) buckets);
  check_int "bucket counts sum to observations" 10
    (List.fold_left (fun acc (_, _, c) -> acc + c) 0 buckets);
  let tel = Telemetry.create () in
  Telemetry.with_installed tel (fun () -> Telemetry.observe "lat" 65);
  check_bool "json bucket keyed by its smallest value" true
    (contains ~needle:"{ \"ge\": 64, \"count\": 1 }" (Export.metrics_json tel));
  check_bool "csv bucket keyed by its smallest value" true
    (contains ~needle:"histogram,lat.ge_64,1" (Export.metrics_csv tel));
  check_bool "prom bucket at its inclusive upper bound" true
    (contains ~needle:"wafl_lat_bucket{le=\"65\"} 1" (Export.metrics_prom tel))

let test_registry_enumeration () =
  let r = Registry.create () in
  ignore (Registry.counter r "a");
  ignore (Registry.gauge r "b");
  ignore (Registry.histogram r "c");
  let names =
    List.rev (Registry.fold r ~init:[] ~f:(fun acc m -> Registry.name m :: acc))
  in
  Alcotest.(check (list string)) "registration order" [ "a"; "b"; "c" ] names;
  check_bool "find hit" true (Registry.find r "b" <> None);
  check_bool "find miss" true (Registry.find r "zzz" = None);
  let c = Registry.counter r "a" in
  Registry.add c 5;
  Registry.clear r;
  check_int "clear zeroes, handle survives" 0 (Registry.count c)

(* --- Tracer --- *)

let test_tracer_ring () =
  let t = Tracer.create ~capacity:4 ~enabled:true () in
  Tracer.cp_begin t;
  for aa = 0 to 5 do
    Tracer.aa_pick t ~space:0 ~aa ~score:aa
  done;
  check_int "emitted counts overwritten" 7 (Tracer.emitted t);
  check_int "retained bounded" 4 (Tracer.length t);
  (* oldest first, and the cp_begin plus the first two picks fell off *)
  let aas =
    List.filter_map
      (function Tracer.Aa_pick { aa; _ } -> Some aa | _ -> None)
      (Tracer.to_list t)
  in
  Alcotest.(check (list int)) "oldest overwritten" [ 2; 3; 4; 5 ] aas

let test_tracer_disabled_still_stamps () =
  let t = Tracer.create ~capacity:8 () in
  check_bool "default disabled" false (Tracer.enabled t);
  Tracer.cp_begin t;
  Tracer.cp_begin t;
  Tracer.aa_pick t ~space:0 ~aa:1 ~score:1;
  check_int "nothing retained" 0 (Tracer.length t);
  Tracer.set_enabled t true;
  Tracer.aa_pick t ~space:0 ~aa:1 ~score:1;
  match Tracer.to_list t with
  | [ Tracer.Aa_pick { cp; _ } ] -> check_int "cp stamp advanced while disabled" 2 cp
  | _ -> Alcotest.fail "expected one pick event"

(* --- installation and helpers --- *)

let test_install_helpers () =
  Telemetry.uninstall ();
  (* all helpers are no-ops when nothing is installed *)
  Telemetry.incr "c";
  Telemetry.observe "h" 5;
  let ran = ref false in
  Telemetry.sample
    ~columns:(fun () ->
      ran := true;
      [ "k" ])
    (fun () ->
      ran := true;
      [| 1.0 |]);
  check_bool "sample thunks skipped when uninstalled" false !ran;
  let tel = Telemetry.create ~tracing:true () in
  Telemetry.with_installed tel (fun () ->
      check_bool "active" true (Telemetry.is_active ());
      Telemetry.incr "c";
      Telemetry.add "c" 2;
      Telemetry.set_gauge "g" 1.5;
      Telemetry.observe "h" 9;
      Telemetry.trace_cp_begin ();
      Telemetry.trace_aa_pick ~space:3 ~aa:7 ~score:100;
      Telemetry.sample ~columns:(fun () -> [ "k" ]) (fun () -> [| 1.0 |]));
  check_bool "uninstalled after" false (Telemetry.is_active ());
  (match Registry.find (Telemetry.registry tel) "c" with
  | Some (Registry.Counter c) -> check_int "counter through helpers" 3 (Registry.count c)
  | _ -> Alcotest.fail "counter not registered");
  check_int "one event traced" 1
    (List.length
       (List.filter
          (function Tracer.Aa_pick _ -> true | _ -> false)
          (Tracer.to_list (Telemetry.tracer tel))));
  (match Registry.find (Telemetry.registry tel) "h" with
  | Some (Registry.Histogram h) ->
    check_int "histogram through helpers" 1 (Hdrhist.count (Registry.merged h))
  | _ -> Alcotest.fail "histogram not registered");
  match Timeseries.rows (Telemetry.series tel) with
  | [ [| 1.0 |] ] -> ()
  | _ -> Alcotest.fail "time-series row mismatch"

(* --- exporters --- *)

let sample_telemetry () =
  let tel = Telemetry.create ~tracing:true () in
  Telemetry.with_installed tel (fun () ->
      Telemetry.add "cp.ops" 12;
      Telemetry.set_gauge "cache.hbps.score_error_max" 0.03125;
      Telemetry.observe "cp.blocks" 100;
      Telemetry.observe "cp.blocks" 3;
      Telemetry.trace_cp_begin ();
      Telemetry.trace_aa_pick ~space:0 ~aa:5 ~score:900;
      Telemetry.trace_cp_end ~ops:12 ~blocks:12 ~freed:0 ~pages:2 ~device_us:4.5);
  tel

let test_metrics_json () =
  let json = Export.metrics_json (sample_telemetry ()) in
  List.iter
    (fun fragment ->
      check_bool (Printf.sprintf "json contains %S" fragment) true
        (contains ~needle:fragment json))
    [
      "\"cp.ops\": 12";
      "\"cache.hbps.score_error_max\": 0.03125";
      "\"cp.blocks\"";
      "\"observations\": 2";
      "\"sum\": 103";
      "{ \"ge\": 3, \"count\": 1 },{ \"ge\": 100, \"count\": 1 }";
      "\"emitted\": 3";
    ];
  check_bool "no snapshots section" false (contains ~needle:"snapshots" json);
  (* crude structural validity: brackets and braces balance, no trailing comma *)
  let depth = ref 0 in
  String.iter
    (fun ch ->
      (match ch with '{' | '[' -> incr depth | '}' | ']' -> decr depth | _ -> ());
      check_bool "never negative depth" true (!depth >= 0))
    json;
  check_int "balanced" 0 !depth

let test_metrics_csv () =
  let csv = Export.metrics_csv (sample_telemetry ()) in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check_string "header" "kind,name,value" (List.hd lines);
  check_bool "counter row" true (List.mem "counter,cp.ops,12" lines);
  check_bool "histogram observations row" true
    (List.mem "histogram,cp.blocks.observations,2" lines)

let test_trace_exports () =
  let tel = sample_telemetry () in
  let csv = Export.trace_csv tel in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check_int "header + 3 events" 4 (List.length lines);
  check_string "header"
    "event,cp,space,aa,score,ops,blocks,freed,pages,listed,tetrises,full_stripes,partial_stripes,aas,relocated,reclaimed,device_us,transients,torn,failed,spikes,retries,ok,slo,burn_fast,burn_slow,violations"
    (List.hd lines);
  check_bool "pick row" true (List.mem "aa_pick,1,0,5,900,,,,,,,,,,,,,,,,,,,,,," lines);
  let json = Export.trace_json tel in
  check_bool "json array" true (json.[0] = '[')

(* --- the zero-allocation guarantee (§4.1.2 analogue) --- *)

let minor_words_during f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_disabled_tracing_allocates_nothing () =
  Telemetry.uninstall ();
  let emit_all () =
    for i = 1 to 10_000 do
      Telemetry.trace_aa_pick ~space:0 ~aa:i ~score:i;
      Telemetry.trace_cache_replenish ~space:0 ~listed:i;
      Telemetry.trace_tetris_write ~space:0 ~tetrises:1 ~full_stripes:1 ~partial_stripes:0;
      Telemetry.trace_free_commit ~space:0 ~freed:1 ~pages:1
    done
  in
  emit_all () (* warm up: fault in any one-time allocation *);
  let uninstalled = minor_words_during emit_all in
  check_bool
    (Printf.sprintf "uninstalled emitters allocate nothing (%.0f words)" uninstalled)
    true (uninstalled = 0.0);
  (* installed but tracing disabled: same guarantee on the pick path *)
  let tel = Telemetry.create () in
  Telemetry.with_installed tel (fun () ->
      emit_all ();
      let disabled = minor_words_during emit_all in
      check_bool
        (Printf.sprintf "disabled tracing allocates nothing (%.0f words)" disabled)
        true (disabled = 0.0));
  (* sanity: with tracing on the same loop does allocate (events are boxed) *)
  let tel = Telemetry.create ~tracing:true () in
  Telemetry.with_installed tel (fun () ->
      let enabled = minor_words_during emit_all in
      check_bool "enabled tracing allocates" true (enabled > 0.0))

let test_uninstalled_spans_allocate_nothing () =
  Telemetry.uninstall ();
  let loop () =
    for _ = 1 to 10_000 do
      Telemetry.span_enter Span.Pick;
      Telemetry.span_exit Span.Pick;
      Telemetry.span_enter Span.Cp;
      Telemetry.span_exit Span.Cp;
      ignore (Telemetry.now_ns ())
    done
  in
  loop () (* warm up *);
  let words = minor_words_during loop in
  check_bool
    (Printf.sprintf "uninstalled span enter/exit allocates nothing (%.0f words)" words)
    true (words = 0.0)

(* --- spans --- *)

let test_span_semantics () =
  let now = ref 0 in
  let s = Span.create ~clock:(fun () -> !now) () in
  check_int "fresh count" 0 (Span.count s Span.Cp);
  Span.enter s Span.Cp;
  check_int "open while running" 1 (Span.open_now s Span.Cp);
  check_int "no completion yet" 0 (Span.count s Span.Cp);
  now := 100;
  Span.enter s Span.Pick;
  now := 140;
  Span.exit s Span.Pick;
  now := 250;
  Span.exit s Span.Cp;
  check_int "pick total" 40 (Span.total_ns s Span.Pick);
  check_int "cp total" 250 (Span.total_ns s Span.Cp);
  check_int "cp count" 1 (Span.count s Span.Cp);
  check_int "closed" 0 (Span.open_now s Span.Cp);
  Span.exit s Span.Harvest;
  check_int "stray exit ignored" 0 (Span.count s Span.Harvest);
  check_int "stray exit adds no time" 0 (Span.total_ns s Span.Harvest);
  check_bool "cp is a root" true (Span.parent Span.Cp = None);
  check_bool "pick nests under cp" true (Span.parent Span.Pick = Some Span.Cp);
  check_bool "device flush nests under cp" true (Span.parent Span.Device_flush = Some Span.Cp);
  check_bool "tetris write nests under the device flush" true
    (Span.parent Span.Tetris_write = Some Span.Device_flush);
  check_int "tetris write depth" 2 (Span.depth Span.Tetris_write);
  let index k =
    let rec go i = function [] -> max_int | y :: ys -> if y = k then i else go (i + 1) ys in
    go 0 Span.all
  in
  check_bool "parents render before children" true
    (List.for_all
       (fun k -> match Span.parent k with None -> true | Some p -> index p < index k)
       Span.all);
  check_bool "bit_clear nests under the commit" true
    (Span.parent Span.Bit_clear = Some Span.Activemap_commit);
  check_bool "place nests under cp" true (Span.parent Span.Place = Some Span.Cp);
  check_string "place name" "cp.place" (Span.name Span.Place);
  check_int "root depth" 0 (Span.depth Span.Cp);
  check_int "bit_clear depth" 2 (Span.depth Span.Bit_clear);
  check_bool "names are stable" true (Span.name Span.Device_flush = "cp.device_flush");
  Span.clear s;
  check_int "clear drops counts" 0 (Span.count s Span.Cp);
  check_int "clear drops totals" 0 (Span.total_ns s Span.Cp)

(* The static tree holds on real CPs: every span's total stays within its
   parent's, and the CP's direct children — pick, harvest, placement,
   device flush, commit — are disjoint, so together they fit in the CP.
   Two systems cover both placement paths: plain, and temperature-routed
   (whose classify pass runs under [Place] too). *)
let test_span_tree_on_cps () =
  let open Wafl_core in
  let config classes =
    let rg =
      {
        Config.media = Config.Hdd Wafl_device.Profile.default_hdd;
        data_devices = 4;
        parity_devices = 1;
        device_blocks = 8192;
        aa_stripes = Some 512;
      }
    in
    Config.make ~raid_groups:[ rg ]
      ~vols:[ Config.default_vol ~name:"vol0" ~blocks:65536 ]
      ~streams:{ Config.default_streams with Config.temp_classes = classes }
      ~seed:3 ()
  in
  List.iter
    (fun classes ->
      let tel = Telemetry.create () in
      let cps = 6 in
      Telemetry.with_installed tel (fun () ->
          let fs = Fs.create (config classes) in
          let vol = Fs.vol fs "vol0" in
          for cp = 1 to cps do
            (* overwrite a shifting window so later CPs classify real
               lifespans *)
            for offset = 0 to 1999 do
              Fs.stage_write fs ~vol ~file:1 ~offset:((offset * cp) mod 3000)
            done;
            ignore (Fs.run_cp fs)
          done);
      let sp = Telemetry.spans tel in
      let label fmt = Printf.sprintf ("%d classes: " ^^ fmt) classes in
      check_int (label "cp spans") cps (Span.count sp Span.Cp);
      (* once per batch, never per block: one batch per CP unrouted; a
         classify pass plus one batch per non-empty class when routed *)
      let places = Span.count sp Span.Place in
      if classes = 1 then check_int (label "one place per CP") cps places
      else
        check_bool (label "classify + class batches per CP") true
          (places >= 2 * cps && places <= cps * (classes + 1));
      check_bool (label "place measured time") true (Span.total_ns sp Span.Place > 0);
      List.iter
        (fun k ->
          match Span.parent k with
          | None -> ()
          | Some p ->
            check_bool
              (label "%s within %s" (Span.name k) (Span.name p))
              true
              (Span.total_ns sp k <= Span.total_ns sp p))
        Span.all;
      let children =
        List.fold_left
          (fun acc k -> if Span.parent k = Some Span.Cp then acc + Span.total_ns sp k else acc)
          0 Span.all
      in
      check_bool (label "cp children disjoint") true (children <= Span.total_ns sp Span.Cp))
    [ 1; 4 ]

(* The time-series row is the only per-CP record, so it must carry every
   count of the CP's report.  Five RAID groups exercise the fold of
   ranges past the fourth into the range3_* cells, a fault profile makes
   the retry/penalty cells nonzero, and both placement paths run: plain
   and temperature-routed over four classes. *)
let test_timeseries_row_matches_report () =
  let open Wafl_core in
  let rg =
    {
      Config.media = Config.Hdd Wafl_device.Profile.default_hdd;
      data_devices = 4;
      parity_devices = 1;
      device_blocks = 4096;
      aa_stripes = Some 256;
    }
  in
  let config classes =
    Config.make ~raid_groups:[ rg; rg; rg; rg; rg ]
      ~vols:[ Config.default_vol ~name:"vol0" ~blocks:65536 ]
      ~streams:{ Config.default_streams with Config.temp_classes = classes }
      ~seed:5 ()
  in
  let spec =
    match Wafl_fault.Fault.spec_of_string "seed=3,transient=0.02,spike=0.01:500" with
    | Ok spec -> spec
    | Error msg -> Alcotest.fail msg
  in
  List.iter
    (fun classes ->
      let tel = Telemetry.create () in
      Wafl_fault.Fault.install_default spec;
      let reports =
        Fun.protect ~finally:Wafl_fault.Fault.uninstall_default (fun () ->
            Telemetry.with_installed tel (fun () ->
                let fs = Fs.create (config classes) in
                let vol = Fs.vol fs "vol0" in
                List.init 6 (fun cp ->
                    for offset = 0 to 1499 do
                      Fs.stage_write fs ~vol ~file:1 ~offset:((offset * (cp + 1)) mod 2500)
                    done;
                    Fs.run_cp fs)))
      in
      let ts = Telemetry.series tel in
      check_int "one row per CP" (List.length reports) (Timeseries.length ts);
      let fl = float_of_int in
      List.iteri
        (fun i (r : Cp.report) ->
          let row = Timeseries.get ts i in
          let eq name expected =
            match Timeseries.column_index ts name with
            | None -> Alcotest.fail ("missing column " ^ name)
            | Some c ->
              Alcotest.(check (float 0.0))
                (Printf.sprintf "%d classes, cp %d: %s" classes i name)
                expected row.(c)
          in
          let fault f = match r.Cp.fault_totals with None -> 0.0 | Some fs -> f fs in
          eq "vvbns_freed" (fl r.Cp.vvbns_freed);
          eq "agg_metafile_pages" (fl r.Cp.agg_metafile_pages);
          eq "vol_metafile_pages" (fl r.Cp.vol_metafile_pages);
          eq "cache_work" (fl r.Cp.cache_work);
          eq "alloc_candidates" (fl r.Cp.alloc_candidates);
          eq "fault_retries_ok" (fault (fun fs -> fl fs.Wafl_fault.Fault.retries_ok));
          eq "fault_penalty_us" (fault (fun fs -> fs.Wafl_fault.Fault.penalty_us));
          for slot = 0 to 3 do
            let ds =
              List.filter (fun (d : Cp.device_report) -> min d.Cp.range_index 3 = slot) r.Cp.devices
            in
            let sum f = List.fold_left (fun acc d -> acc +. f d) 0.0 ds in
            eq (Printf.sprintf "range%d_blocks_written" slot)
              (sum (fun d -> fl d.Cp.blocks_written));
            eq (Printf.sprintf "range%d_device_us" slot) (sum (fun d -> d.Cp.device_time_us));
            eq (Printf.sprintf "range%d_tetrises" slot) (sum (fun d -> fl d.Cp.tetrises))
          done)
        reports;
      (* the comparisons above saw real values, not zeros on both sides *)
      let some f = List.exists f reports in
      check_bool "faults drawn" true
        (some (fun r ->
             match r.Cp.fault_totals with
             | Some fs -> fs.Wafl_fault.Fault.penalty_us > 0.0
             | None -> false));
      check_bool "five ranges reported" true
        (List.for_all (fun r -> List.length r.Cp.devices = 5) reports);
      check_bool "vvbns freed" true (some (fun r -> r.Cp.vvbns_freed > 0)))
    [ 1; 4 ]

(* --- time series --- *)

let test_timeseries_ring () =
  check_bool "non-positive capacity rejected" true
    (try
       ignore (Timeseries.create ~capacity:0 ());
       false
     with Invalid_argument _ -> true);
  let ts = Timeseries.create ~capacity:3 () in
  check_bool "append before schema rejected" true
    (try
       Timeseries.append ts [| 1.0 |];
       false
     with Invalid_argument _ -> true);
  Timeseries.set_columns ts [ "a"; "b" ];
  Timeseries.set_columns ts [ "a"; "b" ] (* same schema is idempotent *);
  check_bool "schema mismatch rejected" true
    (try
       Timeseries.set_columns ts [ "a"; "c" ];
       false
     with Invalid_argument _ -> true);
  check_bool "width mismatch rejected" true
    (try
       Timeseries.append ts [| 1.0 |];
       false
     with Invalid_argument _ -> true);
  for i = 1 to 4 do
    Timeseries.append ts [| float_of_int i; float_of_int (10 * i) |]
  done;
  check_int "retained bounded by capacity" 3 (Timeseries.length ts);
  check_int "lifetime count keeps growing" 4 (Timeseries.appended ts);
  Alcotest.(check (list (list (float 1e-9))))
    "oldest row overwritten"
    [ [ 2.0; 20.0 ]; [ 3.0; 30.0 ]; [ 4.0; 40.0 ] ]
    (List.map Array.to_list (Timeseries.rows ts));
  (match Timeseries.last ts with
  | Some row -> Alcotest.(check (float 1e-9)) "last row" 4.0 row.(0)
  | None -> Alcotest.fail "expected a last row");
  check_bool "column lookup" true (Timeseries.column_index ts "b" = Some 1);
  check_bool "column miss" true (Timeseries.column_index ts "z" = None);
  (* rows are copies: mutating a returned row cannot corrupt the ring *)
  (Timeseries.get ts 0).(0) <- 99.0;
  Alcotest.(check (float 1e-9)) "get returns copies" 2.0 (Timeseries.get ts 0).(0);
  Timeseries.clear ts;
  check_int "clear drops rows" 0 (Timeseries.length ts);
  check_int "clear drops lifetime count" 0 (Timeseries.appended ts);
  Alcotest.(check (list string)) "clear keeps schema" [ "a"; "b" ] (Timeseries.columns ts)

(* --- sharded histograms under real domains --- *)

let test_histogram_multi_domain () =
  let r = Registry.create () in
  let h = Registry.histogram r "par.hammer" in
  let jobs = 4 and per_chunk = 25_000 in
  let value c i = 1 + (((c * per_chunk) + i) * 7919 mod 100_000) in
  Wafl_par.Par.with_pool ~jobs (fun pool ->
      Wafl_par.Par.run pool ~chunks:jobs ~f:(fun c ->
          for i = 1 to per_chunk do
            Registry.observe h (value c i)
          done));
  (* pool task completion is the synchronising edge; totals must be exact *)
  let m = Registry.merged h in
  check_int "no lost observations" (jobs * per_chunk) (Hdrhist.count m);
  let all = Array.make (jobs * per_chunk) 0 in
  for c = 0 to jobs - 1 do
    for i = 1 to per_chunk do
      all.((c * per_chunk) + i - 1) <- value c i
    done
  done;
  check_int "no lost sum" (Array.fold_left ( + ) 0 all) (Hdrhist.sum m);
  let buckets = ref 0 in
  Hdrhist.iter_nonempty m (fun ~lo:_ ~hi:_ ~count -> buckets := !buckets + count);
  check_int "buckets merge to the same total" (jobs * per_chunk) !buckets;
  (* merged quantiles are within one bucket (1/32) of the exact order
     statistic over every domain's observations *)
  Array.sort compare all;
  List.iter
    (fun q ->
      let rank = int_of_float (ceil (q *. float_of_int (Array.length all))) in
      let exact = all.(rank - 1) and est = Hdrhist.quantile m q in
      check_bool
        (Printf.sprintf "p%g within 1/32 (exact %d, merged %d)" (q *. 100.) exact est)
        true
        (est >= exact && float_of_int (est - exact) <= float_of_int exact /. 32.))
    [ 0.5; 0.9; 0.99 ];
  Registry.clear r;
  check_int "clear zeroes every shard" 0 (Hdrhist.count (Registry.merged h))

(* --- span + time-series export round-trips --- *)

let json_get path v =
  let open Wafl_util.Json in
  List.fold_left
    (fun acc key -> match acc with Some v -> member key v | None -> None)
    (Some v) path

let span_telemetry () =
  let now = ref 0 in
  let tel = Telemetry.create ~clock:(fun () -> !now) () in
  Telemetry.with_installed tel (fun () ->
      Telemetry.span_enter Span.Cp;
      now := 10;
      Telemetry.span_enter Span.Pick;
      now := 25;
      Telemetry.span_exit Span.Pick;
      now := 100;
      Telemetry.span_exit Span.Cp;
      Telemetry.span_enter Span.Iron);
  tel

let test_span_json_roundtrip () =
  let tel = span_telemetry () in
  let v =
    match Wafl_util.Json.parse (Export.metrics_json tel) with
    | Ok v -> v
    | Error msg -> Alcotest.fail ("metrics json does not parse: " ^ msg)
  in
  let num path =
    match json_get path v with
    | Some (Wafl_util.Json.Num x) -> x
    | _ -> Alcotest.fail ("missing numeric leaf " ^ String.concat "." path)
  in
  Alcotest.(check (float 1e-9)) "cp count" 1.0 (num [ "spans"; "cp"; "count" ]);
  Alcotest.(check (float 1e-9)) "cp total" 100.0 (num [ "spans"; "cp"; "total_ns" ]);
  Alcotest.(check (float 1e-9)) "pick total" 15.0 (num [ "spans"; "cp.pick"; "total_ns" ]);
  Alcotest.(check (float 1e-9)) "iron still open" 1.0 (num [ "spans"; "iron"; "open" ]);
  (match json_get [ "spans"; "cp.pick"; "parent" ] v with
  | Some (Wafl_util.Json.Str "cp") -> ()
  | _ -> Alcotest.fail "pick parent should be \"cp\"");
  (match json_get [ "spans"; "cp"; "parent" ] v with
  | Some Wafl_util.Json.Null -> ()
  | _ -> Alcotest.fail "root parent should be null");
  check_bool "unentered kinds omitted" true (json_get [ "spans"; "cleaner" ] v = None);
  let csv = Export.metrics_csv tel in
  check_bool "span rows in csv" true (contains ~needle:"span,cp.pick.total_ns,15" csv)

let sampled_telemetry () =
  let tel = Telemetry.create () in
  Telemetry.with_installed tel (fun () ->
      Telemetry.sample ~columns:(fun () -> [ "x"; "y" ]) (fun () -> [| 1.5; 2.0 |]);
      Telemetry.sample ~columns:(fun () -> [ "x"; "y" ]) (fun () -> [| 3.0; -0.25 |]));
  tel

let test_timeseries_json_roundtrip () =
  let tel = sampled_telemetry () in
  let v =
    match Wafl_util.Json.parse (Export.timeseries_json tel) with
    | Ok v -> v
    | Error msg -> Alcotest.fail ("timeseries json does not parse: " ^ msg)
  in
  (match json_get [ "columns" ] v with
  | Some (Wafl_util.Json.List [ Wafl_util.Json.Str "x"; Wafl_util.Json.Str "y" ]) -> ()
  | _ -> Alcotest.fail "columns mismatch");
  (match json_get [ "appended" ] v with
  | Some (Wafl_util.Json.Num 2.0) -> ()
  | _ -> Alcotest.fail "appended mismatch");
  let rows =
    match json_get [ "rows" ] v with
    | Some (Wafl_util.Json.List rows) ->
      List.map
        (function
          | Wafl_util.Json.List cells ->
            List.map
              (function Wafl_util.Json.Num x -> x | _ -> Alcotest.fail "non-numeric cell")
              cells
          | _ -> Alcotest.fail "non-list row")
        rows
    | _ -> Alcotest.fail "rows missing"
  in
  Alcotest.(check (list (list (float 1e-9))))
    "rows round-trip exactly"
    (List.map Array.to_list (Timeseries.rows (Telemetry.series tel)))
    rows

let test_timeseries_csv_roundtrip () =
  let tel = sampled_telemetry () in
  let csv = Export.timeseries_csv tel in
  match String.split_on_char '\n' (String.trim csv) with
  | header :: rows ->
    check_string "csv header is the schema" "x,y" header;
    let parsed =
      List.map
        (fun line -> List.map float_of_string (String.split_on_char ',' line))
        rows
    in
    Alcotest.(check (list (list (float 1e-9))))
      "csv rows round-trip exactly"
      (List.map Array.to_list (Timeseries.rows (Telemetry.series tel)))
      parsed
  | [] -> Alcotest.fail "empty csv"

let () =
  Alcotest.run "wafl_telemetry"
    [
      ( "registry",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "kind clash" `Quick test_kind_clash;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "enumeration" `Quick test_registry_enumeration;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "ring overwrite" `Quick test_tracer_ring;
          Alcotest.test_case "disabled stamps cp" `Quick test_tracer_disabled_still_stamps;
        ] );
      ( "install",
        [ Alcotest.test_case "helpers" `Quick test_install_helpers ] );
      ( "export",
        [
          Alcotest.test_case "metrics json" `Quick test_metrics_json;
          Alcotest.test_case "metrics csv" `Quick test_metrics_csv;
          Alcotest.test_case "trace csv+json" `Quick test_trace_exports;
        ] );
      ( "spans",
        [
          Alcotest.test_case "enter/exit semantics" `Quick test_span_semantics;
          Alcotest.test_case "json round-trip" `Quick test_span_json_roundtrip;
          Alcotest.test_case "tree holds on real CPs" `Quick test_span_tree_on_cps;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "ring + schema" `Quick test_timeseries_ring;
          Alcotest.test_case "json round-trip" `Quick test_timeseries_json_roundtrip;
          Alcotest.test_case "csv round-trip" `Quick test_timeseries_csv_roundtrip;
          Alcotest.test_case "row carries the CP report" `Quick
            test_timeseries_row_matches_report;
        ] );
      ( "sharded histograms",
        [
          Alcotest.test_case "multi-domain hammer" `Quick test_histogram_multi_domain;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "disabled tracing allocates nothing" `Quick
            test_disabled_tracing_allocates_nothing;
          Alcotest.test_case "uninstalled spans allocate nothing" `Quick
            test_uninstalled_spans_allocate_nothing;
        ] );
    ]
