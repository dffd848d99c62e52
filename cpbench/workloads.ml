(* The three closed-loop CP workloads.  Each one is a configuration, an
   aging recipe, and a per-CP batch generator; the loop in [cpbench.ml]
   stages a batch, runs the CP, and only then generates the next batch.
   Everything here is derived from the benchmark seed. *)

open Wafl_util
open Wafl_device
open Wafl_core
open Wafl_workload

(* How a workload exercises the mount path.  [Failover]: at the cadence the
   client's own system is snapshotted mid-batch and replaced by the mounted
   one (the paper's §3.4 takeover).  [Drill]: the same snapshot + mount +
   first CP runs on a side copy that is then dropped, so the measured loop
   keeps its device and temperature state. *)
type mount_mode = Failover | Drill

type t = {
  name : string;
  config : int -> Config.t;  (* seed -> configuration *)
  backend : Wafl_bitmap.Pagestore.backend;
  age : Fs.t -> Flexvol.t -> Rng.t -> int;  (* returns the working set *)
  ops_per_cp : int;
  blocks_per_op : int;
  hot : (float * float) option;  (* (hot_fraction, hot_weight) skew *)
  meta_writes_per_cp : int;  (* one-block writes to file 0, cycling [meta_region] *)
  mount_mode : mount_mode;
  mount_every : int;  (* CPs between mount events *)
  det_cps : int;  (* deterministic prefix compared across legs *)
}

let vol_name = "lun"
let data_file = 1
let meta_file = 0
let meta_region = 256

let lun ~agg_blocks ~aa_blocks =
  { Config.name = vol_name; blocks = agg_blocks * 9 / 8; aa_blocks = Some aa_blocks;
    policy = Config.Best_aa }

(* --- hdd_overwrite: the §4.1 rig of `waflsim top` (quick scale) --- *)

let hdd_rg =
  { Config.media = Config.Hdd Profile.default_hdd; data_devices = 4; parity_devices = 1;
    device_blocks = 32768; aa_stripes = Some 1024 }

let hdd_overwrite =
  {
    name = "hdd_overwrite";
    config =
      (fun seed ->
        Config.make ~raid_groups:[ hdd_rg ]
          ~vols:[ lun ~agg_blocks:(4 * 32768) ~aa_blocks:1024 ]
          ~aggregate_policy:Config.Best_aa ~streams:Config.default_streams ~seed ());
    backend = Wafl_bitmap.Pagestore.Heap;
    age =
      (fun fs vol rng ->
        Aging.age fs vol
          ~spec:{ Aging.fill_fraction = 0.55; fragmentation_cps = 20; writes_per_cp = 1000;
                  file = data_file }
          ~rng ());
    ops_per_cp = 2000;
    blocks_per_op = 2;
    hot = None;
    meta_writes_per_cp = 0;
    mount_mode = Drill;
    mount_every = 50;
    det_cps = 51;
  }

(* --- ssd_segregated: the fig8-streams segregated rig (quick scale) --- *)

let ssd_profile =
  { Profile.default_ssd with Profile.erase_block_blocks = 2048; overprovision = 0.15 }

let ssd_rg =
  { Config.media = Config.Ssd ssd_profile; data_devices = 4; parity_devices = 1;
    device_blocks = 131072;
    aa_stripes = Some (Wafl_aa.Sizing.ssd_stripes ~erase_blocks_per_aa:1 ssd_profile) }

let hot_fraction = 0.02
let hot_weight = 0.9

let ssd_segregated =
  {
    name = "ssd_segregated";
    config =
      (fun seed ->
        Config.make ~raid_groups:[ ssd_rg ]
          ~vols:[ lun ~agg_blocks:(4 * 131072) ~aa_blocks:1024 ]
          ~aggregate_policy:Config.Best_aa
          ~streams:
            { Config.temp_classes = 4; ssd_streams = 4; wear_bias = 2;
              meta_file = Some meta_file }
          ~seed ());
    backend = Wafl_bitmap.Pagestore.Heap;
    age =
      (fun fs vol rng ->
        (* fill, then churn with the same skew the measurement applies, so
           the loop starts from the skew's steady state *)
        let spec =
          { Aging.fill_fraction = 0.85; fragmentation_cps = 120; writes_per_cp = 2000;
            file = data_file }
        in
        let working_set = Aging.fill fs vol spec in
        let churn =
          Random_overwrite.create fs vol ~working_set ~blocks_per_op:1 ~file:data_file
            ~hot_fraction ~hot_weight ~rng:(Rng.split rng) ()
        in
        for _ = 1 to spec.Aging.fragmentation_cps do
          ignore (Random_overwrite.step churn spec.Aging.writes_per_cp)
        done;
        working_set);
    ops_per_cp = 2000;
    blocks_per_op = 1;
    hot = Some (hot_fraction, hot_weight);
    meta_writes_per_cp = 16;
    mount_mode = Drill;
    mount_every = 60;
    det_cps = 61;
  }

(* --- agnostic_failover: one 2^20-block object-store range, off-heap ---

   The churn turns the free space over about twice, so the loop starts
   from fragmented AAs rather than the untouched tail the fill leaves. *)

let agnostic_blocks = 1 lsl 20

let agnostic_failover =
  {
    name = "agnostic_failover";
    config =
      (fun seed ->
        Config.make ~raid_groups:[]
          ~object_ranges:
            [ { Config.profile = Profile.default_object_store; blocks = agnostic_blocks;
                aa_blocks = Some 512 } ]
          ~vols:[ lun ~agg_blocks:agnostic_blocks ~aa_blocks:512 ]
          ~aggregate_policy:Config.Best_aa ~streams:Config.default_streams ~seed ());
    backend = Wafl_bitmap.Pagestore.Bigarray;
    age =
      (fun fs vol rng ->
        Aging.age fs vol
          ~spec:{ Aging.fill_fraction = 0.85; fragmentation_cps = 160; writes_per_cp = 2000;
                  file = data_file }
          ~rng ());
    ops_per_cp = 500;
    blocks_per_op = 2;
    hot = None;
    meta_writes_per_cp = 0;
    mount_mode = Failover;
    mount_every = 100;
    det_cps = 101;
  }

let all = [ hdd_overwrite; ssd_segregated; agnostic_failover ]
let find name = List.find_opt (fun w -> String.equal w.name name) all

(* --- per-CP batches --- *)

(* One CP's staged block writes, in staging order: [files.(i)],
   [offsets.(i)] for [i < len].  [split] is the block index at the middle
   of the client ops, where a mount event interrupts the batch. *)
type batch = {
  files : int array;
  offsets : int array;
  mutable len : int;
  mutable split : int;
}

let make_batch w =
  let n = w.meta_writes_per_cp + (w.ops_per_cp * w.blocks_per_op) in
  { files = Array.make n 0; offsets = Array.make n 0; len = 0; split = 0 }

type gen = {
  w : t;
  rng : Rng.t;
  slots : int;
  hot_slots : int;
  mutable meta_cursor : int;
}

let generator w ~working_set ~rng =
  let slots = working_set / w.blocks_per_op in
  let hot_slots =
    match w.hot with
    | Some (frac, _) -> int_of_float (frac *. float_of_int slots)
    | None -> 0
  in
  { w; rng; slots; hot_slots; meta_cursor = 0 }

(* Same offset law as [Random_overwrite]: uniform, or a [hot_weight] share
   of the ops uniform in the first [hot_fraction] of the working set. *)
let pick_slot g =
  match g.w.hot with
  | Some (_, weight) when g.hot_slots > 0 && g.hot_slots < g.slots ->
    if Rng.float g.rng 1.0 < weight then Rng.int g.rng g.hot_slots
    else g.hot_slots + Rng.int g.rng (g.slots - g.hot_slots)
  | _ -> Rng.int g.rng g.slots

let fill g b =
  let w = g.w in
  let k = ref 0 in
  let push file offset =
    b.files.(!k) <- file;
    b.offsets.(!k) <- offset;
    incr k
  in
  for _ = 1 to w.meta_writes_per_cp do
    push meta_file (g.meta_cursor mod meta_region);
    g.meta_cursor <- g.meta_cursor + 1
  done;
  let half = w.ops_per_cp / 2 in
  for op = 0 to w.ops_per_cp - 1 do
    if op = half then b.split <- !k;
    let base = pick_slot g * w.blocks_per_op in
    for i = 0 to w.blocks_per_op - 1 do
      push data_file (base + i)
    done
  done;
  b.len <- !k

(* Client ops in a batch: each overwrite is one op, each metafile write
   another. *)
let ops_per_batch w = w.ops_per_cp + w.meta_writes_per_cp
