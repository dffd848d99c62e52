(* Trace output of a traced leg, written once the run is over:

   - [<base>.trace.json]: Chrome trace-event JSON (Perfetto / about:tracing
     open it).  Complete ("X") events for the benchmark's own spans —
     staging, each [Fs.run_cp], snapshot, mount (its args carry the first
     CP's time) — and one counter ("C") sample per traced CP carrying that
     CP's per-layer span deltas in ns.
   - [<base>.cp.tsv]: one row per CP of both legs (CPU-ns timings, the
     [Speed] probe and factor, layer deltas, exact counts), from which
     per-layer p50/p99 can be read. *)

open Probe

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let layer_names = Array.map Wafl_telemetry.Span.name layer_kinds

let unspanned c = c.cp_ns - spanned c.layers

let write_trace path ~t0 cps mounts =
  let oc = open_out path in
  let us ns = float_of_int (ns - t0) /. 1e3 in
  let first = ref true in
  let event fmt =
    Printf.ksprintf
      (fun s ->
        output_string oc (if !first then "\n  " else ",\n  ");
        first := false;
        output_string oc s)
      fmt
  in
  let x name ~ts ~dur args =
    event "{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": {%s}}"
      name (us ts) (float_of_int dur /. 1e3) args
  in
  output_string oc "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
  List.iter
    (fun c ->
      let args =
        Printf.sprintf
          "\"cp\": %d, \"ops\": %d, \"blocks\": %d, \"after_mount\": %b, \"traced\": %b"
          c.idx c.counts.(ops) c.counts.(blocks) c.after_mount c.traced
      in
      (* staging of a mount CP is split around the mount; drawn before it *)
      x "stage" ~ts:(c.start_ns - c.stage_ns) ~dur:c.stage_ns args;
      x "run_cp" ~ts:c.start_ns ~dur:c.cp_ns args;
      let fields =
        Array.to_list
          (Array.mapi (fun i n -> Printf.sprintf "%S: %d" n c.layers.(i)) layer_names)
        @ [ Printf.sprintf "\"unspanned\": %d" (unspanned c) ]
      in
      if c.traced then
        event
          "{\"name\": \"cp_layers_ns\", \"ph\": \"C\", \"pid\": 1, \"ts\": %.3f, \"args\": {%s}}"
          (us c.start_ns) (String.concat ", " fields))
    cps;
  List.iter
    (fun m ->
      let args = Printf.sprintf "\"cp\": %d" m.m_idx in
      x "snapshot" ~ts:m.m_start_ns ~dur:m.snapshot_ns args;
      x "mount" ~ts:(m.m_start_ns + m.snapshot_ns) ~dur:m.mount_ns
        (Printf.sprintf "%s, \"rebuild_ns\": %d, \"pages_scanned\": %d, \"first_cp_ns\": %d"
           args m.rebuild_ns m.pages_scanned m.first_cp_ns))
    mounts;
  output_string oc "\n]}\n";
  close_out oc

let write_table path cps =
  let oc = open_out path in
  let header =
    [ "leg"; "cp"; "after_mount"; "traced"; "probe_ns"; "scale"; "stage_ns"; "cp_ns" ]
    @ List.map (fun n -> n ^ "_ns") (Array.to_list layer_names)
    @ [ "unspanned_ns"; "device_us"; "minor_words"; "major_collections" ]
    @ Array.to_list count_names
  in
  output_string oc (String.concat "\t" header ^ "\n");
  List.iter
    (fun c ->
      let cells =
        [ string_of_int c.leg; string_of_int c.idx; string_of_bool c.after_mount;
          string_of_bool c.traced;
          string_of_int c.probe_ns; Printf.sprintf "%.6f" c.scale; string_of_int c.stage_ns;
          string_of_int c.cp_ns ]
        @ List.map string_of_int (Array.to_list c.layers)
        @ [ string_of_int (unspanned c); Printf.sprintf "%.3f" c.device_us;
            Printf.sprintf "%.0f" c.minor_words; string_of_int c.major_collections ]
        @ List.map string_of_int (Array.to_list c.counts)
      in
      output_string oc (String.concat "\t" cells ^ "\n"))
    cps;
  close_out oc

let write ~base ~cps ~mounts ~table =
  mkdir_p (Filename.dirname base);
  let t0 =
    match cps with c :: _ -> c.start_ns - c.stage_ns | [] -> 0
  in
  write_trace (base ^ ".trace.json") ~t0 cps mounts;
  write_table (base ^ ".cp.tsv") table
