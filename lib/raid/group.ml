open Wafl_block

type totals = {
  flushes : int;
  blocks_written : int;
  tetrises_written : int;
  full_stripes : int;
  partial_stripes : int;
  parity_writes : int;
  extra_parity_reads : int;
  per_device_blocks : int array;
  chain_count : int;
  chain_blocks : int;
}

type t = {
  geometry : Geometry.t;
  mutable totals : totals;
  mutable keys : int array;  (* sweep scratch: one flush's stripe-major keys *)
  last_stripe : int array;  (* sweep scratch: per device, last stripe written *)
}

let empty_totals geom =
  {
    flushes = 0;
    blocks_written = 0;
    tetrises_written = 0;
    full_stripes = 0;
    partial_stripes = 0;
    parity_writes = 0;
    extra_parity_reads = 0;
    per_device_blocks = Array.make (Geometry.data_devices geom) 0;
    chain_count = 0;
    chain_blocks = 0;
  }

let create geometry =
  {
    geometry;
    totals = empty_totals geometry;
    keys = [||];
    last_stripe = Array.make (Geometry.data_devices geometry) 0;
  }

let geometry t = t.geometry

type flush_report = {
  blocks : int;
  full_stripes : int;
  partial_stripes : int;
  parity_writes : int;
  extra_reads : int;
  tetrises : int;
  per_device_blocks : int array;
  chains : int;
}

(* One sweep over a sorted scratch copy of the flush.  The key
   [stripe * data_devices + device] orders blocks stripe-major, so after
   dropping duplicates each run of equal stripes is one stripe to
   classify, a change of [stripe / tetris_stripes] opens a new tetris, and
   every device sees its DBNs in ascending order — a block extends the
   device's write chain iff that device last wrote the previous stripe. *)
let record_flush t ~vbns =
  let geom = t.geometry in
  let data = Geometry.data_devices geom in
  let parity = Geometry.parity_devices geom in
  let device_blocks = Geometry.device_blocks geom in
  let total = Geometry.total_blocks geom in
  let n = Array.length vbns in
  if Array.length t.keys < n then t.keys <- Array.make (max n (2 * Array.length t.keys)) 0;
  let keys = t.keys in
  for i = 0 to n - 1 do
    let vbn = vbns.(i) in
    if vbn < 0 || vbn >= total then
      invalid_arg "Group.record_flush: VBN out of bounds";
    keys.(i) <- ((vbn mod device_blocks) * data) + (vbn / device_blocks)
  done;
  Wafl_util.Int_sort.prefix keys n;
  let last_stripe = t.last_stripe in
  Array.fill last_stripe 0 data (-2);
  let per_device = Array.make data 0 in
  let blocks = ref 0 and stripes = ref 0 and full = ref 0 and tetrises = ref 0 in
  let chains = ref 0 in
  let stripe_blocks = ref 0 and cur_stripe = ref (-1) and cur_tetris = ref (-1) in
  for i = 0 to n - 1 do
    let key = keys.(i) in
    if i = 0 || key <> keys.(i - 1) then begin
      let stripe = key / data and device = key mod data in
      if stripe <> !cur_stripe then begin
        cur_stripe := stripe;
        stripe_blocks := 0;
        incr stripes;
        let tetris = stripe / Units.tetris_stripes in
        if tetris <> !cur_tetris then begin
          cur_tetris := tetris;
          incr tetrises
        end
      end;
      incr stripe_blocks;
      if !stripe_blocks = data then incr full;
      incr blocks;
      per_device.(device) <- per_device.(device) + 1;
      if last_stripe.(device) <> stripe - 1 then incr chains;
      last_stripe.(device) <- stripe
    end
  done;
  let partial = !stripes - !full in
  (* A partial stripe with k new blocks is a read-modify-write: read the k
     old data blocks plus the old parity before writing k + parity. *)
  let report =
    {
      blocks = !blocks;
      full_stripes = !full;
      partial_stripes = partial;
      parity_writes = !stripes * parity;
      extra_reads = !blocks - (!full * data) + (partial * parity);
      tetrises = !tetrises;
      per_device_blocks = per_device;
      chains = !chains;
    }
  in
  let tot = t.totals in
  Array.iteri (fun i k -> tot.per_device_blocks.(i) <- tot.per_device_blocks.(i) + k) per_device;
  t.totals <-
    {
      tot with
      flushes = tot.flushes + 1;
      blocks_written = tot.blocks_written + report.blocks;
      tetrises_written = tot.tetrises_written + report.tetrises;
      full_stripes = tot.full_stripes + report.full_stripes;
      partial_stripes = tot.partial_stripes + report.partial_stripes;
      parity_writes = tot.parity_writes + report.parity_writes;
      extra_parity_reads = tot.extra_parity_reads + report.extra_reads;
      chain_count = tot.chain_count + report.chains;
      chain_blocks = tot.chain_blocks + report.blocks;
    };
  report

let totals t = t.totals

let mean_chain_len (totals : totals) =
  if totals.chain_count = 0 then 0.0
  else float_of_int totals.chain_blocks /. float_of_int totals.chain_count

let stripe_fullness (totals : totals) =
  let stripes = totals.full_stripes + totals.partial_stripes in
  if stripes = 0 then 0.0 else float_of_int totals.full_stripes /. float_of_int stripes

let reset t = t.totals <- empty_totals t.geometry

let pp_totals fmt (totals : totals) =
  Format.fprintf fmt "flushes=%d blocks=%d tetrises=%d full=%d partial=%d chains=%d"
    totals.flushes totals.blocks_written totals.tetrises_written totals.full_stripes
    totals.partial_stripes totals.chain_count
