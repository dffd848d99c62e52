(* Smoke/integration tests for Wafl_experiments: the fast experiments are
   run end-to-end at quick scale and their headline orderings asserted. *)

open Wafl_experiments

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Common --- *)

let test_scale_parse () =
  check_bool "quick" true (Common.scale_of_string "quick" = Some Common.Quick);
  check_bool "FULL" true (Common.scale_of_string "FULL" = Some Common.Full);
  check_bool "garbage" true (Common.scale_of_string "medium" = None)

let test_pct () =
  Alcotest.(check string) "up" "+10.0%" (Common.pct 110.0 100.0);
  Alcotest.(check string) "down" "-25.0%" (Common.pct 75.0 100.0);
  Alcotest.(check string) "zero base" "n/a" (Common.pct 1.0 0.0)

let test_rig_builders () =
  let ssd = Common.ssd_raid_group Common.Quick ~aa_stripes:None in
  check_int "ssd devices" 4 ssd.Wafl_core.Config.data_devices;
  let hdd = Common.hdd_raid_group Common.Quick in
  check_bool "hdd media" true
    (match hdd.Wafl_core.Config.media with Wafl_core.Config.Hdd _ -> true | _ -> false);
  let smr = Common.smr_raid_group Common.Quick ~aa_stripes:(Some 63) in
  check_bool "smr media" true
    (match smr.Wafl_core.Config.media with Wafl_core.Config.Smr _ -> true | _ -> false)

(* --- Figure 7 end-to-end (fast) --- *)

let test_fig7_shape () =
  let result = Fig7.run ~scale:Common.Quick () in
  check_int "four groups" 4 (List.length result.Fig7.groups);
  let aged = List.filter (fun g -> g.Fig7.aged) result.Fig7.groups in
  let fresh = List.filter (fun g -> not g.Fig7.aged) result.Fig7.groups in
  let mean f gs = List.fold_left (fun a g -> a +. f g) 0.0 gs /. float_of_int (List.length gs) in
  check_bool "fresh groups receive more blocks" true
    (mean (fun g -> g.Fig7.blocks_per_s) fresh > mean (fun g -> g.Fig7.blocks_per_s) aged);
  check_bool "aged tetrises less efficient" true
    (mean (fun g -> g.Fig7.blocks_per_tetris) aged
    < mean (fun g -> g.Fig7.blocks_per_tetris) fresh);
  (* disks balanced within groups *)
  List.iter
    (fun g ->
      let disks = g.Fig7.per_disk_blocks in
      let mx = Array.fold_left Float.max 0.0 disks in
      let mn = Array.fold_left Float.min infinity disks in
      check_bool "balanced" true (mx -. mn < 0.25 *. mx))
    result.Fig7.groups

(* --- Figure 9 end-to-end (fast) --- *)

let test_fig9_alignment () =
  let results = Fig9.run ~scale:Common.Quick () in
  let hdd = List.find (fun r -> r.Fig9.sizing = Fig9.Hdd_aa) results in
  let azcs = List.find (fun r -> r.Fig9.sizing = Fig9.Azcs_aligned_aa) results in
  check_bool "hdd AA unaligned" false hdd.Fig9.azcs_aligned;
  check_bool "aligned AA aligned" true azcs.Fig9.azcs_aligned;
  check_bool "aligned has fewer random checksum writes" true
    (azcs.Fig9.random_checksum_writes < hdd.Fig9.random_checksum_writes);
  check_bool "aligned has higher drive throughput" true
    (azcs.Fig9.drive_throughput_blocks_per_s > hdd.Fig9.drive_throughput_blocks_per_s)

(* --- Figure 10 end-to-end (fast) --- *)

let test_fig10_scaling () =
  let result = Fig10.run ~scale:Common.Quick () in
  (* TopAA flat in size; scan grows *)
  let first = List.hd result.Fig10.sweep_a in
  let last = List.nth result.Fig10.sweep_a (List.length result.Fig10.sweep_a - 1) in
  check_bool "scan grows" true (last.Fig10.without_topaa_us > 2.0 *. first.Fig10.without_topaa_us);
  check_bool "topaa flat" true (last.Fig10.with_topaa_us < 1.5 *. first.Fig10.with_topaa_us);
  List.iter
    (fun p -> check_bool "topaa faster everywhere" true (p.Fig10.with_topaa_us < p.Fig10.without_topaa_us))
    (result.Fig10.sweep_a @ result.Fig10.sweep_b)

(* Every system fig10 mounts is left Iron-clean: the TopAA mount is timed
   on seeded caches, but the figure must not leave placeholder scores
   behind for the post-run gate to find.  The table's modeled readiness
   is unaffected (it is fixed before any background rebuild). *)
let test_fig10_leaves_iron_clean () =
  let open Wafl_core in
  Fs.enable_registry ();
  let result, systems =
    Fun.protect ~finally:Fs.disable_registry (fun () ->
        let result = Fig10.run ~scale:Common.Quick () in
        (result, Fs.registered ()))
  in
  check_int "two mounts per point plus the source system"
    (3 * List.length (result.Fig10.sweep_a @ result.Fig10.sweep_b))
    (List.length systems);
  List.iteri
    (fun i fs ->
      let findings =
        List.filter
          (function Iron.Orphan_blocks _ -> false | _ -> true)
          (Iron.check fs)
      in
      check_int (Printf.sprintf "system %d Iron findings" i) 0 (List.length findings))
    systems

(* --- Ablation: bin width error bound --- *)

let test_ablation_bin_width_bound () =
  let result = Ablation.run ~scale:Common.Quick () in
  List.iter
    (fun p ->
      check_bool
        (Printf.sprintf "width %d bounded" p.Ablation.bin_width)
        true
        (p.Ablation.worst_observed_error <= p.Ablation.guaranteed_error +. 1e-9))
    result.Ablation.bin_widths;
  (* error grows with bin width *)
  let widths = List.map (fun p -> p.Ablation.guaranteed_error) result.Ablation.bin_widths in
  let rec ascending = function
    | a :: (b :: _ as rest) -> a <= b && ascending rest
    | _ -> true
  in
  check_bool "guaranteed error monotone in width" true (ascending widths);
  (* cleaner: emptiest-first relocates less per AA *)
  match result.Ablation.cleaner with
  | [ emptiest; fullest ] ->
    check_bool "cleaner ROI" true
      (emptiest.Ablation.relocations_per_aa < fullest.Ablation.relocations_per_aa)
  | _ -> Alcotest.fail "two cleaner strategies expected"

let () =
  Alcotest.run "wafl_experiments"
    [
      ( "common",
        [
          Alcotest.test_case "scale parse" `Quick test_scale_parse;
          Alcotest.test_case "pct" `Quick test_pct;
          Alcotest.test_case "rig builders" `Quick test_rig_builders;
        ] );
      ("fig7", [ Alcotest.test_case "shape" `Slow test_fig7_shape ]);
      ("fig9", [ Alcotest.test_case "alignment" `Slow test_fig9_alignment ]);
      ( "fig10",
        [
          Alcotest.test_case "scaling" `Slow test_fig10_scaling;
          Alcotest.test_case "leaves every system Iron-clean" `Slow
            test_fig10_leaves_iron_clean;
        ] );
      ("ablation", [ Alcotest.test_case "bin width bound" `Slow test_ablation_bin_width_bound ]);
    ]
