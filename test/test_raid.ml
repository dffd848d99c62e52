(* Tests for Wafl_raid: geometry and the group flush sweep (stripe
   classification, tetrises, chains), checked against a naive oracle. *)

open Wafl_raid

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let geom = Geometry.create ~data_devices:6 ~parity_devices:1 ~device_blocks:1000

(* --- Geometry --- *)

let test_geometry_basics () =
  check_int "data devices" 6 (Geometry.data_devices geom);
  check_int "parity" 1 (Geometry.parity_devices geom);
  check_int "stripes" 1000 (Geometry.stripes geom);
  check_int "total blocks" 6000 (Geometry.total_blocks geom)

let test_geometry_mapping () =
  let loc = Geometry.location_of_vbn geom 0 in
  check_int "vbn0 device" 0 loc.Geometry.device;
  check_int "vbn0 dbn" 0 loc.Geometry.dbn;
  let loc = Geometry.location_of_vbn geom 1500 in
  check_int "vbn1500 device" 1 loc.Geometry.device;
  check_int "vbn1500 dbn" 500 loc.Geometry.dbn;
  check_int "roundtrip" 1500 (Geometry.vbn_of_location geom loc)

let prop_geometry_roundtrip =
  QCheck.Test.make ~name:"vbn <-> location roundtrip" ~count:500
    QCheck.(int_bound 5999)
    (fun vbn ->
      let loc = Geometry.location_of_vbn geom vbn in
      Geometry.vbn_of_location geom loc = vbn)

let test_geometry_stripe () =
  check_int "stripe of vbn" 500 (Geometry.stripe_of_vbn geom 1500);
  let vbns = Geometry.vbns_of_stripe geom 10 in
  check_int "stripe width" 6 (List.length vbns);
  List.iter (fun v -> check_int "same dbn" 10 (Geometry.stripe_of_vbn geom v)) vbns;
  (* all on different devices *)
  let devices = List.map (fun v -> (Geometry.location_of_vbn geom v).Geometry.device) vbns in
  Alcotest.(check (list int)) "device order" [ 0; 1; 2; 3; 4; 5 ] devices

let test_geometry_device_range () =
  let r = Geometry.device_vbn_range geom 2 in
  check_int "start" 2000 (Wafl_block.Extent.start r);
  check_int "len" 1000 (Wafl_block.Extent.len r)

let test_geometry_bounds () =
  Alcotest.check_raises "oob vbn" (Invalid_argument "Geometry: VBN out of bounds") (fun () ->
      ignore (Geometry.location_of_vbn geom 6000))

(* --- Naive oracle ---

   The list + Hashtbl accounting that [Group.record_flush]'s single sorted
   sweep replaced: stripe classification, tetris grouping and per-device
   write chains, each deriving the VBN -> (device, stripe) split on its
   own.  Kept here only as the reference the sweep is checked against. *)

module Oracle = struct
  type classification = {
    full_stripes : int;
    partial_stripes : int;
    blocks_in_partial : int;
    parity_writes : int;
    extra_reads : int;
  }

  let classify geom ~vbns =
    let data = Geometry.data_devices geom in
    let parity = Geometry.parity_devices geom in
    let per_stripe = Hashtbl.create 256 in
    let seen = Hashtbl.create 256 in
    List.iter
      (fun vbn ->
        if not (Hashtbl.mem seen vbn) then begin
          Hashtbl.add seen vbn ();
          let s = Geometry.stripe_of_vbn geom vbn in
          let count = try Hashtbl.find per_stripe s with Not_found -> 0 in
          Hashtbl.replace per_stripe s (count + 1)
        end)
      vbns;
    Hashtbl.fold
      (fun _stripe count acc ->
        if count = data then
          {
            acc with
            full_stripes = acc.full_stripes + 1;
            parity_writes = acc.parity_writes + parity;
          }
        else
          {
            acc with
            partial_stripes = acc.partial_stripes + 1;
            blocks_in_partial = acc.blocks_in_partial + count;
            parity_writes = acc.parity_writes + parity;
            extra_reads = acc.extra_reads + count + parity;
          })
      per_stripe
      {
        full_stripes = 0;
        partial_stripes = 0;
        blocks_in_partial = 0;
        parity_writes = 0;
        extra_reads = 0;
      }

  (* (tetrises, blocks, per-device blocks) *)
  let summarize geom ~vbns =
    let by_tetris = Hashtbl.create 64 in
    let seen = Hashtbl.create 256 in
    List.iter
      (fun vbn ->
        if not (Hashtbl.mem seen vbn) then begin
          Hashtbl.add seen vbn ();
          let index = Geometry.stripe_of_vbn geom vbn / Wafl_block.Units.tetris_stripes in
          let existing = try Hashtbl.find by_tetris index with Not_found -> [] in
          Hashtbl.replace by_tetris index (vbn :: existing)
        end)
      vbns;
    let per_device = Array.make (Geometry.data_devices geom) 0 in
    let blocks = ref 0 in
    Hashtbl.iter
      (fun _ tetris_vbns ->
        List.iter
          (fun vbn ->
            let loc = Geometry.location_of_vbn geom vbn in
            per_device.(loc.Geometry.device) <- per_device.(loc.Geometry.device) + 1;
            incr blocks)
          tetris_vbns)
      by_tetris;
    (Hashtbl.length by_tetris, !blocks, per_device)

  (* Write chains are per device: consecutive DBNs on the same device
     written in one flush collapse into one I/O. *)
  let chain_summary geom vbns =
    let by_device = Hashtbl.create 16 in
    List.iter
      (fun vbn ->
        let loc = Geometry.location_of_vbn geom vbn in
        let existing = try Hashtbl.find by_device loc.Geometry.device with Not_found -> [] in
        Hashtbl.replace by_device loc.Geometry.device (loc.Geometry.dbn :: existing))
      vbns;
    Hashtbl.fold
      (fun _device dbns (count, blocks) ->
        let s = Wafl_block.Chain.of_blocks dbns in
        (count + s.Wafl_block.Chain.chains, blocks + s.Wafl_block.Chain.blocks))
      by_device (0, 0)

  let report geom vbns : Group.flush_report =
    let c = classify geom ~vbns in
    let tetrises, blocks, per_device_blocks = summarize geom ~vbns in
    let chains, chain_blocks = chain_summary geom vbns in
    assert (chain_blocks = blocks);
    assert (c.blocks_in_partial + (c.full_stripes * Geometry.data_devices geom) = blocks);
    {
      Group.blocks;
      full_stripes = c.full_stripes;
      partial_stripes = c.partial_stripes;
      parity_writes = c.parity_writes;
      extra_reads = c.extra_reads;
      tetrises;
      per_device_blocks;
      chains;
    }
end

let flush vbns = Group.record_flush (Group.create geom) ~vbns:(Array.of_list vbns)

(* --- Stripe classification --- *)

let test_stripe_full () =
  (* write one complete stripe: vbns at dbn=5 across all 6 devices *)
  let r = flush (Geometry.vbns_of_stripe geom 5) in
  check_int "full" 1 r.Group.full_stripes;
  check_int "partial" 0 r.Group.partial_stripes;
  check_int "parity writes" 1 r.Group.parity_writes;
  check_int "no extra reads" 0 r.Group.extra_reads

let test_stripe_partial () =
  (* write 2 of 6 blocks of a stripe *)
  let r =
    flush
      [ Geometry.vbn_of_location geom { Geometry.device = 0; dbn = 7 };
        Geometry.vbn_of_location geom { Geometry.device = 3; dbn = 7 } ]
  in
  check_int "partial" 1 r.Group.partial_stripes;
  check_int "blocks" 2 r.Group.blocks;
  (* RMW: read 2 old data + 1 old parity *)
  check_int "extra reads" 3 r.Group.extra_reads;
  check_int "device writes" 3 (r.Group.blocks + r.Group.parity_writes)

let test_stripe_mixed () =
  let full = Geometry.vbns_of_stripe geom 1 in
  let partial = [ Geometry.vbn_of_location geom { Geometry.device = 0; dbn = 2 } ] in
  let r = flush (full @ partial) in
  check_int "full" 1 r.Group.full_stripes;
  check_int "partial" 1 r.Group.partial_stripes;
  let in_full = r.Group.full_stripes * Geometry.data_devices geom in
  let ratio = float_of_int in_full /. float_of_int r.Group.blocks in
  check_bool "ratio" true (abs_float (ratio -. (6.0 /. 7.0)) < 1e-9)

let test_stripe_duplicates () =
  let v = Geometry.vbn_of_location geom { Geometry.device = 0; dbn = 3 } in
  let r = flush [ v; v; v ] in
  check_int "counted once" 1 r.Group.blocks;
  check_int "one chain" 1 r.Group.chains

let distinct vbns = List.length (List.sort_uniq Int.compare vbns)

let prop_stripe_blocks_conserved =
  QCheck.Test.make ~name:"classified blocks = distinct vbns" ~count:200
    QCheck.(list (int_bound 5999))
    (fun vbns ->
      let r = flush vbns in
      let in_full = r.Group.full_stripes * Geometry.data_devices geom in
      r.Group.blocks = distinct vbns
      && in_full <= r.Group.blocks
      && r.Group.extra_reads = r.Group.blocks - in_full + r.Group.partial_stripes)

(* --- Tetris --- *)

let test_tetris_grouping () =
  (* stripes 0..63 are tetris 0; stripe 64 is tetris 1 *)
  let r =
    flush
      [ Geometry.vbn_of_location geom { Geometry.device = 0; dbn = 0 };
        Geometry.vbn_of_location geom { Geometry.device = 1; dbn = 63 };
        Geometry.vbn_of_location geom { Geometry.device = 2; dbn = 64 } ]
  in
  check_int "two tetrises" 2 r.Group.tetrises;
  check_int "three stripes touched" 3 r.Group.partial_stripes;
  Alcotest.(check (array int)) "per device" [| 1; 1; 1; 0; 0; 0 |] r.Group.per_device_blocks

let test_tetris_summary () =
  let r = flush (Geometry.vbns_of_stripe geom 0 @ Geometry.vbns_of_stripe geom 100) in
  check_int "tetrises" 2 r.Group.tetrises;
  check_int "blocks" 12 r.Group.blocks;
  check_int "mean blocks per tetris" 6 (r.Group.blocks / r.Group.tetrises);
  Array.iter (fun n -> check_int "per device" 2 n) r.Group.per_device_blocks

let prop_tetris_blocks_conserved =
  QCheck.Test.make ~name:"tetris blocks = distinct vbns" ~count:200
    QCheck.(list (int_bound 5999))
    (fun vbns ->
      let r = flush vbns in
      r.Group.blocks = distinct vbns
      && Array.fold_left ( + ) 0 r.Group.per_device_blocks = distinct vbns)

(* --- Sweep vs oracle --- *)

(* Flushes shaped like CP writes: scattered blocks, whole stripes and runs
   along a device (which may spill onto the next), with repeats. *)
let gen_flush geom =
  let total = Geometry.total_blocks geom in
  QCheck.Gen.(
    list_size (0 -- 40)
      (oneof
         [
           map (fun v -> [ v ]) (int_bound (total - 1));
           map (Geometry.vbns_of_stripe geom) (int_bound (Geometry.stripes geom - 1));
           map2
             (fun v len -> List.init len (fun k -> min (total - 1) (v + k)))
             (int_bound (total - 1)) (1 -- 80);
         ])
    >|= fun chunks ->
    let vbns = List.concat chunks in
    vbns @ List.filteri (fun i _ -> i mod 3 = 0) vbns)

let prop_sweep_matches_oracle (name, geom) =
  QCheck.Test.make ~name:("sweep = naive oracle, " ^ name) ~count:300
    (QCheck.make ~print:QCheck.Print.(list int) (gen_flush geom))
    (fun vbns ->
      Group.record_flush (Group.create geom) ~vbns:(Array.of_list vbns) = Oracle.report geom vbns)

let oracle_geometries =
  [
    ("6+1x1000", geom);
    ("4+2x200", Geometry.create ~data_devices:4 ~parity_devices:2 ~device_blocks:200);
    ("1+1x130", Geometry.create ~data_devices:1 ~parity_devices:1 ~device_blocks:130);
  ]

(* --- Group --- *)

let test_group_accumulates () =
  let g = Group.create geom in
  let _ = Group.record_flush g ~vbns:(Array.of_list (Geometry.vbns_of_stripe geom 0)) in
  let _ =
    Group.record_flush g
      ~vbns:[| Geometry.vbn_of_location geom { Geometry.device = 0; dbn = 999 } |]
  in
  let t = Group.totals g in
  check_int "flushes" 2 t.Group.flushes;
  check_int "blocks" 7 t.Group.blocks_written;
  check_int "full" 1 t.Group.full_stripes;
  check_int "partial" 1 t.Group.partial_stripes;
  check_int "tetrises" 2 t.Group.tetrises_written;
  check_bool "fullness" true (abs_float (Group.stripe_fullness t -. 0.5) < 1e-9);
  Alcotest.check_raises "vbn outside the group"
    (Invalid_argument "Group.record_flush: VBN out of bounds") (fun () ->
      ignore (Group.record_flush g ~vbns:[| 0; 6000 |]));
  check_int "rejected flush not counted" 2 (Group.totals g).Group.flushes

let test_group_chains () =
  let g = Group.create geom in
  (* 3 consecutive dbns on device 0: one chain *)
  let vbns =
    Array.map (fun dbn -> Geometry.vbn_of_location geom { Geometry.device = 0; dbn }) [| 10; 11; 12 |]
  in
  let _ = Group.record_flush g ~vbns in
  let t = Group.totals g in
  check_int "one chain" 1 t.Group.chain_count;
  Alcotest.(check (float 1e-9)) "chain len 3" 3.0 (Group.mean_chain_len t)

let test_group_chain_split_across_devices () =
  let g = Group.create geom in
  (* same dbns on two devices: two chains even though vbns look contiguous per device *)
  let vbns =
    List.concat_map
      (fun device ->
        List.map (fun dbn -> Geometry.vbn_of_location geom { Geometry.device; dbn }) [ 0; 1 ])
      [ 0; 1 ]
  in
  let _ = Group.record_flush g ~vbns:(Array.of_list vbns) in
  check_int "two chains" 2 (Group.totals g).Group.chain_count

let test_group_reset () =
  let g = Group.create geom in
  let _ = Group.record_flush g ~vbns:(Array.of_list (Geometry.vbns_of_stripe geom 0)) in
  Group.reset g;
  check_int "zeroed" 0 (Group.totals g).Group.blocks_written

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      ([ prop_geometry_roundtrip; prop_stripe_blocks_conserved; prop_tetris_blocks_conserved ]
      @ List.map prop_sweep_matches_oracle oracle_geometries)
  in
  Alcotest.run "wafl_raid"
    [
      ( "geometry",
        [
          Alcotest.test_case "basics" `Quick test_geometry_basics;
          Alcotest.test_case "mapping" `Quick test_geometry_mapping;
          Alcotest.test_case "stripe" `Quick test_geometry_stripe;
          Alcotest.test_case "device range" `Quick test_geometry_device_range;
          Alcotest.test_case "bounds" `Quick test_geometry_bounds;
        ] );
      ( "stripe",
        [
          Alcotest.test_case "full" `Quick test_stripe_full;
          Alcotest.test_case "partial" `Quick test_stripe_partial;
          Alcotest.test_case "mixed" `Quick test_stripe_mixed;
          Alcotest.test_case "duplicates" `Quick test_stripe_duplicates;
        ] );
      ( "tetris",
        [
          Alcotest.test_case "grouping" `Quick test_tetris_grouping;
          Alcotest.test_case "summary" `Quick test_tetris_summary;
        ] );
      ( "group",
        [
          Alcotest.test_case "accumulates" `Quick test_group_accumulates;
          Alcotest.test_case "chains" `Quick test_group_chains;
          Alcotest.test_case "chains split across devices" `Quick
            test_group_chain_split_across_devices;
          Alcotest.test_case "reset" `Quick test_group_reset;
        ]
        @ qsuite );
    ]
