type stats = { puts : int; blocks_written : int }

type t = {
  profile : Profile.object_store;
  mutable puts : int;
  mutable blocks_written : int;
  mutable fault : Wafl_fault.Fault.device option;
}

let create ?(profile = Profile.default_object_store) () =
  { profile; puts = 0; blocks_written = 0; fault = None }

let profile t = t.profile
let set_fault t f = t.fault <- f
let fault t = t.fault

let objects_of_batch t vbns =
  let objs = Hashtbl.create 16 in
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun vbn ->
      if not (Hashtbl.mem seen vbn) then begin
        Hashtbl.add seen vbn ();
        Hashtbl.replace objs (vbn / t.profile.Profile.object_blocks) ()
      end)
    vbns;
  (Hashtbl.length objs, Hashtbl.length seen)

let put_count_for t vbns = fst (objects_of_batch t vbns)

let write_batch t vbns =
  (* Dropped blocks never make it into an object PUT; a torn block still
     uploads (the store accepted garbage bytes). *)
  let vbns =
    match t.fault with
    | None -> vbns
    | Some dev ->
      Array.of_seq
        (Seq.filter
           (fun vbn ->
             match Wafl_fault.Fault.write dev ~block:vbn with
             | Wafl_fault.Fault.Written | Wafl_fault.Fault.Written_torn -> true
             | Wafl_fault.Fault.Failed -> false)
           (Array.to_seq vbns))
  in
  let puts, blocks = objects_of_batch t vbns in
  t.puts <- t.puts + puts;
  t.blocks_written <- t.blocks_written + blocks;
  Wafl_telemetry.Telemetry.add "device.object.puts" puts;
  Wafl_telemetry.Telemetry.add "device.object.blocks_written" blocks

let cost_us t ~(stats_delta : stats) = float_of_int stats_delta.puts *. t.profile.Profile.put_us

let stats t = { puts = t.puts; blocks_written = t.blocks_written }

let diff_stats ~(after : stats) ~(before : stats) =
  { puts = after.puts - before.puts; blocks_written = after.blocks_written - before.blocks_written }

let reset_stats t =
  t.puts <- 0;
  t.blocks_written <- 0
