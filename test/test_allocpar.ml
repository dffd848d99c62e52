(* Tests for multi-domain allocation windows: the two hard invariants
   (bit-identical final state vs. serial on drain-symmetric workloads at
   every domain count, zero minor-heap words per block in the consume
   loop), conservation (no double handout), fault quarantine under a
   pool, and the mmap pagestore remount path. *)

open Wafl_bitmap
open Wafl_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Byte-aligned geometry (every AA extent starts and ends on a bitmap
   byte), so the allocator's static [parallel_capable] gate opens. *)
let par_config =
  let rg =
    {
      Config.media = Config.Hdd Wafl_device.Profile.default_hdd;
      data_devices = 4;
      parity_devices = 1;
      device_blocks = 8192;
      aa_stripes = Some 512;
    }
  in
  Config.make ~raid_groups:[ rg; rg ]
    ~vols:[ Config.default_vol ~name:"vol0" ~blocks:65536 ]
    ~aggregate_policy:Config.Best_aa ~seed:7 ()

let agg_bitmap fs = Metafile.snapshot (Aggregate.metafile (Fs.aggregate fs))

(* Allocate until the aggregate is dry, asserting the zero-allocation
   contract after every batch that went through the parallel window. *)
let fill_to_capacity wa =
  let dst = Array.make 4096 0 in
  let out = ref [] in
  let rec go () =
    let got = Write_alloc.allocate_pvbns_into wa ~dst 4096 in
    Array.iter
      (fun s ->
        check_int "minor words per domain" 0 s.Write_alloc.ps_minor_words)
      (Write_alloc.last_par_stats wa);
    if got > 0 then begin
      out := Array.sub dst 0 got :: !out;
      go ()
    end
  in
  go ();
  Array.concat (List.rev !out)

let check_all_distinct label pvbns =
  let sorted = Array.copy pvbns in
  Array.sort compare sorted;
  let dup = ref false in
  for i = 1 to Array.length sorted - 1 do
    if sorted.(i) = sorted.(i - 1) then dup := true
  done;
  check_bool (label ^ ": no pvbn handed out twice") false !dup

let test_capable () =
  let fs = Fs.create par_config in
  check_bool "byte-aligned config is parallel-capable" true
    (Write_alloc.parallel_capable (Fs.write_alloc fs))

(* The core invariant: a drain-symmetric workload (fill every
   allocatable block, then free them all back) leaves state
   bit-identical to the serial allocator at every domain count and hands
   no block out twice. *)
let hammer jobs =
  (* Serial reference. *)
  let fs_s = Fs.create par_config in
  let pv_s = fill_to_capacity (Fs.write_alloc fs_s) in
  check_int "serial fill drains the aggregate" 0
    (Aggregate.free_blocks (Fs.aggregate fs_s));
  let want = agg_bitmap fs_s in
  (* Parallel run. *)
  Write_alloc.install_alloc_pool ~jobs;
  Fun.protect ~finally:Write_alloc.uninstall_alloc_pool (fun () ->
      let fs = Fs.create par_config in
      let wa = Fs.write_alloc fs in
      let before = agg_bitmap fs in
      let free0 = Aggregate.free_blocks (Fs.aggregate fs) in
      let pv = fill_to_capacity wa in
      let label = Printf.sprintf "jobs=%d" jobs in
      check_int (label ^ ": same blocks handed out") (Array.length pv_s)
        (Array.length pv);
      check_all_distinct label pv;
      check_int (label ^ ": parallel fill drains the aggregate") 0
        (Aggregate.free_blocks (Fs.aggregate fs));
      check_bool
        (label ^ ": final bitmap identical to serial")
        true
        (Bitmap.equal want (agg_bitmap fs));
      if jobs > 1 then
        check_int (label ^ ": one stats slot per domain") jobs
          (Array.length (Write_alloc.last_par_stats wa));
      check_int (label ^ ": claim CAS races") 0 (Write_alloc.claim_conflicts wa);
      (* CP boundary releases every claim and refiles taken AAs. *)
      Write_alloc.cp_finish wa;
      (* Free everything back through the aggregate's validated queue. *)
      Array.iter (fun pvbn -> Aggregate.queue_free (Fs.aggregate fs) ~pvbn) pv;
      ignore (Aggregate.commit_frees (Fs.aggregate fs));
      check_int (label ^ ": all blocks free again") free0
        (Aggregate.free_blocks (Fs.aggregate fs));
      check_bool
        (label ^ ": free-all restores the pre-fill bitmap")
        true
        (Bitmap.equal before (agg_bitmap fs)))

let test_hammer_jobs2 () = hammer 2
let test_hammer_jobs4 () = hammer 4
let test_hammer_jobs8 () = hammer 8

(* jobs=1 through the pool API must behave exactly like no pool at
   all (install_alloc_pool ~jobs:1 is a no-op uninstall, and
   alloc_pool_jobs reports the serial degree 1). *)
let test_jobs1_is_serial () =
  Write_alloc.install_alloc_pool ~jobs:1;
  check_int "jobs=1 leaves no pool" 1 (Write_alloc.alloc_pool_jobs ())

(* Whole CPs with the pool installed: the op-for-op identical workload
   must allocate exactly as many blocks as the serial system (the
   blocks chosen may differ — picks interleave — but none may be lost
   or duplicated, and the activemap's internal validation would fail
   the CP on any double handout). *)
let test_pooled_cps_conserve () =
  let run fs =
    let vol = (Fs.vols fs).(0) in
    for cp = 0 to 2 do
      for i = 0 to 2047 do
        Fs.stage_write fs ~vol ~file:(cp mod 2) ~offset:i
      done;
      ignore (Fs.run_cp fs)
    done;
    Aggregate.free_blocks (Fs.aggregate fs)
  in
  let free_serial = run (Fs.create par_config) in
  Write_alloc.install_alloc_pool ~jobs:4;
  Fun.protect ~finally:Write_alloc.uninstall_alloc_pool (fun () ->
      let free_par = run (Fs.create par_config) in
      check_int "pooled CPs allocate the same block count" free_serial free_par)

(* [bench alloc par]'s modeled critical path of one fill to capacity, in
   block-equivalents: each window's largest per-domain share, plus the
   blocks the window tails handed out, plus 64 per serialised AA pick. *)
let modeled_units jobs =
  let pool = jobs > 1 in
  if pool then Write_alloc.install_alloc_pool ~jobs;
  Fun.protect
    ~finally:(fun () -> if pool then Write_alloc.uninstall_alloc_pool ())
    (fun () ->
      let fs = Fs.create par_config in
      let wa = Fs.write_alloc fs in
      let batch = 16384 in
      let dst = Array.make batch 0 in
      let total = ref 0 and in_windows = ref 0 and max_shares = ref 0 in
      let rec go () =
        let got = Write_alloc.allocate_pvbns_into wa ~dst batch in
        total := !total + got;
        if pool then begin
          let stats = Write_alloc.last_par_stats wa in
          Array.iter (fun s -> in_windows := !in_windows + s.Write_alloc.ps_allocated) stats;
          max_shares :=
            !max_shares
            + Array.fold_left (fun m s -> max m s.Write_alloc.ps_allocated) 0 stats
        end;
        if got > 0 then go ()
      in
      go ();
      !max_shares + (!total - !in_windows) + (64 * Write_alloc.aas_taken wa))

(* The modeled speedup is a deterministic figure: two fills at 4 domains
   model the same critical path, and it clears the bench's 2.5x gate. *)
let test_modeled_speedup_deterministic () =
  let serial = modeled_units 1 in
  let a = modeled_units 4 and b = modeled_units 4 in
  check_int "same modeled critical path on two fills" a b;
  check_bool "modeled speedup at 4 domains >= 2.5" true
    (float_of_int serial /. float_of_int a >= 2.5)

(* A single window call asked for every free block must return them all:
   after an off-balance serial start, some domains run dry while others
   still hold ring blocks, and the window's single-threaded tail drains
   those rings. *)
let test_window_tail_completes () =
  Write_alloc.install_alloc_pool ~jobs:4;
  Fun.protect ~finally:Write_alloc.uninstall_alloc_pool (fun () ->
      let fs = Fs.create par_config in
      let wa = Fs.write_alloc fs in
      let agg = Fs.aggregate fs in
      let dst = Array.make (Aggregate.total_blocks agg) 0 in
      check_int "serial start" 10 (Write_alloc.allocate_pvbns_into wa ~dst 10);
      let free = Aggregate.free_blocks agg in
      check_int "one window call hands out every free block" free
        (Write_alloc.allocate_pvbns_into wa ~dst free);
      check_bool "the window's domains left a shortfall for the tail" true
        (Array.fold_left
           (fun acc s -> acc + s.Write_alloc.ps_allocated)
           0 (Write_alloc.last_par_stats wa)
        < free);
      check_int "aggregate drained" 0 (Aggregate.free_blocks agg);
      check_all_distinct "window tail" (Array.sub dst 0 free))

(* No ring a window leaves behind survives the CP boundary: after it, the
   first one-domain allocation must take a fresh AA instead of consuming
   blocks of an AA whose claim the boundary released. *)
let test_window_rings_end_at_cp () =
  Write_alloc.install_alloc_pool ~jobs:4;
  let fs = Fs.create par_config in
  let wa = Fs.write_alloc fs in
  let dst = Array.make 64 0 in
  Fun.protect ~finally:Write_alloc.uninstall_alloc_pool (fun () ->
      check_int "window" 64 (Write_alloc.allocate_pvbns_into wa ~dst 64));
  Write_alloc.cp_finish wa;
  let taken = Write_alloc.aas_taken wa in
  check_int "one block" 1 (Write_alloc.allocate_pvbns_into wa ~dst 1);
  check_int "fresh AA taken after the boundary" (taken + 1) (Write_alloc.aas_taken wa)

(* The fault-quarantine branch under a pool: device-local blocks
   [1024, 2048) of range 0 are permanently bad, so the AAs over them are
   quarantined whichever domain (or the window's tail) picks them.  One
   CP places more writes than the aggregate holds, through 4-domain
   windows; nothing may land on the bad blocks or be handed out twice,
   and the CP must leave the system Iron-clean. *)
let test_quarantine_under_pool () =
  let bad_start = 1024 and bad_len = 1024 in
  let spec =
    {
      Wafl_fault.Fault.default_spec with
      Wafl_fault.Fault.transient_p = 0.0;
      torn_p = 0.0;
      spike_p = 0.0;
      bad_ranges = [ (0, bad_start, bad_len) ];
    }
  in
  let tel = Wafl_telemetry.Telemetry.create () in
  Wafl_fault.Fault.install_default spec;
  Write_alloc.install_alloc_pool ~jobs:4;
  Fun.protect
    ~finally:(fun () ->
      Write_alloc.uninstall_alloc_pool ();
      Wafl_fault.Fault.uninstall_default ())
    (fun () ->
      Wafl_telemetry.Telemetry.with_installed tel (fun () ->
          let fs = Fs.create par_config in
          let vol = (Fs.vols fs).(0) in
          let writes = Aggregate.total_blocks (Fs.aggregate fs) in
          for offset = 0 to writes - 1 do
            Fs.stage_write fs ~vol ~file:1 ~offset
          done;
          let report = Fs.run_cp fs in
          check_bool "the CP ran parallel windows" true
            (Array.length (Write_alloc.last_par_stats (Fs.write_alloc fs)) = 4);
          let base0 = (Aggregate.ranges (Fs.aggregate fs)).(0).Aggregate.base in
          let placed =
            List.filter_map
              (fun offset ->
                Option.bind (Flexvol.read_file vol ~file:1 ~offset) (fun vvbn ->
                    Flexvol.pvbn_of_vvbn vol vvbn))
              (List.init writes Fun.id)
          in
          check_int "every placement accounted" report.Cp.blocks_allocated
            (List.length placed);
          check_bool "the bad AAs left blocks unplaced" true
            (report.Cp.blocks_allocated < writes);
          List.iter
            (fun pvbn ->
              let local = pvbn - base0 in
              if local >= bad_start && local < bad_start + bad_len then
                Alcotest.failf "pvbn %d handed out inside the bad range" pvbn)
            placed;
          check_all_distinct "quarantine under pool" (Array.of_list placed);
          check_int "Iron clean after the CP" 0 (List.length (Iron.check fs))));
  let quarantined =
    match
      Wafl_telemetry.Registry.find
        (Wafl_telemetry.Telemetry.registry tel)
        "fault.aa_quarantined"
    with
    | Some (Wafl_telemetry.Registry.Counter c) -> Wafl_telemetry.Registry.count c
    | _ -> 0
  in
  check_bool "AAs quarantined" true (quarantined > 0)

(* --- mmap pagestore: remount reproduces persisted state --- *)

let fresh_dir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) name in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else Sys.mkdir dir 0o700;
  dir

let test_mmap_remount () =
  let dir = fresh_dir "wafl_test_allocpar_mmap" in
  let bits_a = 4096 and bits_b = 10000 in
  (* First process: create two stores (deterministic ps0/ps1 sequence)
     and persist a bit pattern into each. *)
  Pagestore.with_mmap_dir dir (fun () ->
      let a = Bitmap.create ~bits:bits_a in
      let b = Bitmap.create ~bits:bits_b in
      Bitmap.set a 7;
      Bitmap.set a 4090;
      Bitmap.set_range b ~start:100 ~len:33);
  (* Remount: the same creation order maps the same files, so the bits
     come back without any explicit load step. *)
  Pagestore.with_mmap_dir dir (fun () ->
      let a = Bitmap.create ~bits:bits_a in
      let b = Bitmap.create ~bits:bits_b in
      check_bool "bit 7 persisted" true (Bitmap.get a 7);
      check_bool "bit 4090 persisted" true (Bitmap.get a 4090);
      check_int "store a population" 2 (Bitmap.count_set a);
      check_int "store b population" 33 (Bitmap.count_set b);
      check_bool "unset bit stays unset" false (Bitmap.get b 99));
  (* A size change must not inherit stale bytes: recreating store a at a
     different word count zero-fills it. *)
  Pagestore.with_mmap_dir dir (fun () ->
      let a = Bitmap.create ~bits:(2 * bits_a) in
      check_int "resized store is zero-filled" 0 (Bitmap.count_set a))

let test_mmap_explicit_backend_stays_anonymous () =
  let dir = fresh_dir "wafl_test_allocpar_mmap2" in
  Pagestore.with_mmap_dir dir (fun () ->
      let n_before = Array.length (Sys.readdir dir) in
      let s = Pagestore.create ~backend:Pagestore.Heap 16 in
      ignore (Pagestore.words s);
      check_int "explicit-backend create maps no file" n_before
        (Array.length (Sys.readdir dir)))

let () =
  Alcotest.run "allocpar"
    [
      ( "front-end",
        [
          Alcotest.test_case "parallel capable" `Quick test_capable;
          Alcotest.test_case "jobs=1 is serial" `Quick test_jobs1_is_serial;
          Alcotest.test_case "hammer jobs=2" `Quick test_hammer_jobs2;
          Alcotest.test_case "hammer jobs=4" `Quick test_hammer_jobs4;
          Alcotest.test_case "hammer jobs=8" `Slow test_hammer_jobs8;
          Alcotest.test_case "pooled CPs conserve" `Quick
            test_pooled_cps_conserve;
          Alcotest.test_case "quarantine under a pool" `Quick
            test_quarantine_under_pool;
          Alcotest.test_case "window tail completes a request" `Quick
            test_window_tail_completes;
          Alcotest.test_case "window rings end at the CP" `Quick
            test_window_rings_end_at_cp;
          Alcotest.test_case "modeled speedup is deterministic" `Quick
            test_modeled_speedup_deterministic;
        ] );
      ( "mmap backend",
        [
          Alcotest.test_case "remount reproduces state" `Quick
            test_mmap_remount;
          Alcotest.test_case "explicit backend stays anonymous" `Quick
            test_mmap_explicit_backend_stays_anonymous;
        ] );
    ]
