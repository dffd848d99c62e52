(* Host-speed probe.

   Durations are CPU time, so the time the process waits for a CPU is
   already out of them; what is left is the speed of the CPU it gets,
   which on a shared host drifts by tens of percent, and at times by 2x,
   over seconds to minutes as other tenants load the same cores and
   caches.  So after every CP, outside the timed interval, the benchmark
   times this fixed kernel and every measured duration is rescaled to a
   host on which the kernel takes exactly [nominal_ns]:

     normalized = cpu_ns * nominal_ns / median(kernel ns of nearby CPs)

   The kernel is [Array.sort] of 1024 scrambled ints: branchy,
   call-heavy, L1-resident code like the program's own CP path.  Across
   host slowdowns of up to 2x it tracked the three workloads' CP time to
   within ~4%, where a pointer chase over a 2 MiB array (memory latency
   only) missed up to half of the slowdown.  Its only allocation is the
   ~4k words of the exceptions [Array.sort] raises internally, so a minor
   collection (the program's GC work) falls inside about one probe in 70,
   and the median over nearby probes drops it.  It is benchmark code, so
   no change to the program moves it. *)

let nominal_ns = 200_000.0

let n = 1024
let src = Array.init n (fun i -> (i * 2654435761 + 12345) land 0xFFFFF)
let buf = Array.make n 0

let probe now_ns =
  let t0 = now_ns () in
  Array.blit src 0 buf 0 n;
  Array.sort Int.compare buf;
  now_ns () - t0

let median_of a lo hi =
  let s = Array.sub a lo (hi - lo + 1) in
  Array.sort Int.compare s;
  float_of_int s.(Array.length s / 2)

(* Scale factors for a leg's samples, one per CP: [nominal_ns] over the
   median probe time of the CPs within [radius] of it. *)
let radius = 10

let factors samples =
  let n = Array.length samples in
  Array.init n (fun i ->
      nominal_ns /. median_of samples (max 0 (i - radius)) (min (n - 1) (i + radius)))

(* Scale factor from a burst of probes, for intervals outside the loop
   (aging). *)
let burst now_ns =
  let s = Array.init (2 * radius + 1) (fun _ -> probe now_ns) in
  nominal_ns /. median_of s 0 (Array.length s - 1)
