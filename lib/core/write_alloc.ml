open Wafl_util
open Wafl_bitmap
open Wafl_aa
open Wafl_aacache
open Wafl_telemetry
module Par = Wafl_par.Par

(* What a cursor allocates from.  A volume carries its own touched-page set
   (volume allocation only ever runs on one domain); range cursors record
   dirtied aggregate pages in their domain's [sink]. *)
type space = Range of Aggregate.range | Vol of Flexvol.t * Bytes.t

(* Per-space allocation cursor: a preallocated ring holding the free VBNs of
   the AA currently being filled (harvested word-at-a-time, consumed front
   to back), plus the AAs taken since the last CP.  The ring is sized to a
   full AA once, at cursor creation, so the steady-state pick -> harvest ->
   allocate loop allocates no per-block heap words.

   Taken AAs live in a flat id array (an AA is taken at most once per CP —
   the claim word filters re-picks), and every take claims the AA in
   [owners] as [owner]: range cursors alias the range's claim array, so
   every domain's and every class's cursors see each other's ownership;
   volume cursors get a private array (the claim only carries the
   taken-at-most-once invariant there). *)
type cursor = {
  space : space;
  owner : int;                    (* claim id: the cursor row's domain *)
  ring : int array;               (* harvested free VBNs; [head, len) live *)
  mutable head : int;
  mutable len : int;
  mutable ring_aa : int;          (* the AA the live entries belong to *)
  mutable ring_epoch : int;       (* CP epoch the live entries were harvested in *)
  mutable taken_list : int array; (* AAs checked out of the cache this CP *)
  mutable n_taken : int;
  owners : int Atomic.t array;    (* per-AA claim word (see Aggregate.claim_aa) *)
  quarantined : (int, unit) Hashtbl.t;  (* AAs overlapping device bad ranges *)
  mutable scan_pos : int;         (* First_fit scan position *)
}

(* Per-domain accumulators: everything a range consume or a harvest writes
   that another domain could write too.  Domain 0's sink serves every
   single-domain call; [merge_sink] folds a sink back into the shared
   structures, serially. *)
type sink = {
  deltas : Score.delta array;     (* score changes, per physical range *)
  touched : Bytes.t;              (* aggregate metafile pages dirtied *)
  mutable dirty : bool;           (* a range consume ran since the last merge *)
  words : int ref;                (* bitmap words read by harvests *)
  mutable harvested : int;        (* VBNs harvested into rings *)
  mutable consume_minor : int;    (* minor-heap words inside consume segments *)
}

type par_slot_stats = {
  ps_allocated : int;
  ps_minor_words : int;
}

type t = {
  aggregate : Aggregate.t;
  rng : Rng.t;
  classes : int;                          (* temperature routing slots (>= 1) *)
  mutable cursors : cursor array array array;  (* [domain][class][range] *)
  mutable sinks : sink array;             (* one per domain *)
  mutable vols : (Flexvol.t * cursor) list;
  mutable vol_slots : cursor option array;  (* indexed by Flexvol.uid *)
  mutable epoch : int;                    (* bumped at every cp_finish *)
  words : int ref;                        (* cumulative 32-bit bitmap words read *)
  mutable harvested : int;                (* cumulative VBNs harvested into rings *)
  elig : int array;                       (* planned eligible range indices *)
  weight : int array;                     (* planned weight per eligible entry *)
  mutable n_elig : int;
  mutable total_weight : int;
  pick_mutex : Mutex.t;                   (* serialises picks across domains *)
  mutable used_par : bool;                (* a parallel window ran this epoch *)
  mutable par_capable : int;              (* -1 unknown, 0 no, 1 yes (cached) *)
  mutable last_par : par_slot_stats array;
  mutable claim_conflicts : int;
  mutable phys_taken : int;
  mutable phys_score_sum : int;
  mutable virt_taken : int;
  mutable virt_score_sum : int;
  mutable candidates_scanned : int;
}

let new_cursor space ~owner ~capacity ~owners =
  {
    space;
    owner;
    ring = Array.make (max 1 capacity) 0;
    head = 0;
    len = 0;
    ring_aa = 0;
    ring_epoch = 0;
    taken_list = Array.make 16 0;
    n_taken = 0;
    owners;
    quarantined = Hashtbl.create 8;
    scan_pos = 0;
  }

let push_taken cursor aa =
  if cursor.n_taken = Array.length cursor.taken_list then begin
    let bigger = Array.make (2 * Array.length cursor.taken_list) 0 in
    Array.blit cursor.taken_list 0 bigger 0 cursor.n_taken;
    cursor.taken_list <- bigger
  end;
  cursor.taken_list.(cursor.n_taken) <- aa;
  cursor.n_taken <- cursor.n_taken + 1

(* Domain [d]'s cursor rows, one per class.  Every row aliases the range's
   claim array, so no two rows — classes or domains — ever check out the
   same AA within a CP. *)
let domain_rows aggregate ~classes d =
  Array.init classes (fun _ ->
      Array.map
        (fun (r : Aggregate.range) ->
          new_cursor (Range r) ~owner:d
            ~capacity:(Topology.full_aa_capacity r.Aggregate.topology)
            ~owners:r.Aggregate.owners)
        (Aggregate.ranges aggregate))

let new_sink aggregate =
  {
    deltas =
      Array.map
        (fun (r : Aggregate.range) -> Score.create_delta r.Aggregate.topology)
        (Aggregate.ranges aggregate);
    touched = Bytes.make (Metafile.pages (Aggregate.metafile aggregate)) '\000';
    dirty = false;
    words = ref 0;
    harvested = 0;
    consume_minor = 0;
  }

let create aggregate ~rng =
  let nr = Array.length (Aggregate.ranges aggregate) in
  let classes =
    (Aggregate.config aggregate).Config.streams.Config.temp_classes
  in
  {
    aggregate;
    rng;
    classes;
    cursors = [| domain_rows aggregate ~classes 0 |];
    sinks = [| new_sink aggregate |];
    vols = [];
    vol_slots = Array.make 8 None;
    epoch = 0;
    words = ref 0;
    harvested = 0;
    elig = Array.make nr 0;
    weight = Array.make nr 0;
    n_elig = 0;
    total_weight = 0;
    pick_mutex = Mutex.create ();
    used_par = false;
    par_capable = -1;
    last_par = [||];
    claim_conflicts = 0;
    phys_taken = 0;
    phys_score_sum = 0;
    virt_taken = 0;
    virt_score_sum = 0;
    candidates_scanned = 0;
  }

let aggregate t = t.aggregate

(* O(1), option- and closure-free on the hit path: volume cursors sit under
   the zero-allocation VVBN take path, and the slot array is indexed by the
   volume's process-wide dense uid. *)
let rec vol_cursor t vol =
  let uid = Flexvol.uid vol in
  if uid < Array.length t.vol_slots then begin
    match Array.unsafe_get t.vol_slots uid with
    | Some c -> c
    | None ->
      let topology = Flexvol.topology vol in
      let c =
        new_cursor
          (Vol (vol, Bytes.make (Metafile.pages (Flexvol.metafile vol)) '\000'))
          ~owner:0
          ~capacity:(Topology.full_aa_capacity topology)
          ~owners:
            (Array.init (Topology.aa_count topology) (fun _ ->
                 Atomic.make Aggregate.no_owner))
      in
      t.vol_slots.(uid) <- Some c;
      t.vols <- (vol, c) :: t.vols;
      c
  end
  else begin
    let bigger =
      Array.make (max (uid + 1) (2 * Array.length t.vol_slots)) None
    in
    Array.blit t.vol_slots 0 bigger 0 (Array.length t.vol_slots);
    t.vol_slots <- bigger;
    vol_cursor t vol
  end

let register_vol t vol = ignore (vol_cursor t vol)

let iter_range_cursors t f = Array.iter (Array.iter (Array.iter f)) t.cursors

(* Pick the next AA for a cursor under its space's policy.  [free_of aa]
   recomputes the AA's current free count (used by the cacheless
   policies).  [space] labels the pick in the telemetry trace (range index,
   or -1 for a FlexVol); a cache-backed pick is traced by the cache itself.
   Returns (aa, score-at-take) or None. *)
let pick_aa t cursor ~policy ~space ~cache ~n_aas ~free_of =
  match (policy : Config.allocation_policy) with
  | Config.Best_aa -> (
    match cache with
    | None -> None
    | Some c ->
      (* Skip over empty-scored AAs; bounded so a drained cache terminates.
         The claim-aware take skips AAs another cursor owns, and the CAS
         right after makes the ownership authoritative — a lost race
         (counted, structurally impossible while picks are serialised by
         the pick mutex) just retries. *)
      let keep aa = Atomic.get cursor.owners.(aa) = Aggregate.no_owner in
      let rec try_take attempts =
        if attempts = 0 then None
        else begin
          match Cache.take_best_filtered c ~keep with
          | None -> None
          | Some (aa, score) ->
            if Atomic.compare_and_set cursor.owners.(aa) Aggregate.no_owner cursor.owner
            then begin
              push_taken cursor aa;
              if score > 0 then Some (aa, score) else try_take (attempts - 1)
            end
            else begin
              t.claim_conflicts <- t.claim_conflicts + 1;
              Telemetry.incr "write_alloc.claim_conflicts";
              try_take (attempts - 1)
            end
        end
      in
      try_take 8)
  | Config.Random_aa ->
    (* The §4.1 baseline: uniformly random AA, regardless of emptiness. *)
    let rec try_pick attempts =
      if attempts = 0 then None
      else begin
        let aa = Rng.int t.rng n_aas in
        let free = free_of aa in
        if free > 0 then begin
          Telemetry.trace_aa_pick ~space ~aa ~score:free;
          Some (aa, free)
        end
        else try_pick (attempts - 1)
      end
    in
    try_pick 64
  | Config.First_fit ->
    let rec scan steps pos =
      if steps > n_aas then None
      else begin
        let free = free_of pos in
        if free > 0 then begin
          cursor.scan_pos <- (pos + 1) mod n_aas;
          Telemetry.trace_aa_pick ~space ~aa:pos ~score:free;
          Some (pos, free)
        end
        else scan (steps + 1) ((pos + 1) mod n_aas)
      end
    in
    scan 0 cursor.scan_pos

(* Drop ring entries that predate the last CP boundary and have since been
   allocated: CP-external writers (mount, aging, repair) may touch the
   bitmap between CPs.  Within one epoch the ring needs no re-check —
   entries are free at harvest, mid-CP frees only queue (the bitmap bit
   stays set until commit), and every allocation drains through this
   cursor — which is what lets the consume loop skip a per-block
   [is_allocated] probe. *)
let revalidate t cursor =
  if cursor.ring_epoch <> t.epoch then begin
    cursor.ring_epoch <- t.epoch;
    let mf =
      match cursor.space with
      | Range _ -> Aggregate.metafile t.aggregate
      | Vol (v, _) -> Flexvol.metafile v
    in
    let rec compact i k =
      if i >= cursor.len then k
      else begin
        let v = cursor.ring.(i) in
        if Metafile.is_allocated mf v then compact (i + 1) k
        else begin
          cursor.ring.(k) <- v;
          compact (i + 1) (k + 1)
        end
      end
    in
    let live = compact cursor.head 0 in
    cursor.head <- 0;
    cursor.len <- live
  end

(* Does the AA (its range-local extents) overlap a permanent bad range of
   the range's fault device? *)
let faulty cursor aa =
  match cursor.space with
  | Range ({ Aggregate.fault = Some dev; _ } as r) ->
    List.exists
      (fun e ->
        Wafl_fault.Fault.range_faulty dev ~start:(Wafl_block.Extent.start e)
          ~len:(Wafl_block.Extent.len e))
      (Topology.extents_of_aa r.Aggregate.topology aa)
  | Range _ | Vol _ -> false

(* [take_aa_locked]'s answer for an AA it quarantined. *)
let quarantined_aa = -2

(* Take and claim the cursor's next AA, under the pick mutex; -1 when no AA
   is available.  An AA overlapping a permanent bad range is quarantined
   instead ([quarantined_aa], when [can_quarantine]; else -1): it stays
   claimed and taken (so a re-pick this CP is impossible) but the
   quarantine set keeps cp_finish from ever re-filing it. *)
let take_aa_locked t cursor ~can_quarantine =
  let policy, space, cache, topology, free_of =
    match cursor.space with
    | Range r ->
      ( (Aggregate.config t.aggregate).Config.aggregate_policy,
        r.Aggregate.index,
        r.Aggregate.cache,
        r.Aggregate.topology,
        fun aa -> Aggregate.aa_score_now t.aggregate r aa )
    | Vol (v, _) ->
      ( (Flexvol.spec v).Config.policy,
        -1,
        Flexvol.cache v,
        Flexvol.topology v,
        fun aa -> Score.score_of_aa (Flexvol.topology v) (Flexvol.metafile v) aa )
  in
  Telemetry.span_enter Span.Pick;
  let picked =
    pick_aa t cursor ~policy ~space ~cache ~n_aas:(Topology.aa_count topology) ~free_of
  in
  Telemetry.span_exit Span.Pick;
  match picked with
  | None -> -1
  | Some (aa, _) when faulty cursor aa ->
    if can_quarantine then begin
      Hashtbl.replace cursor.quarantined aa ();
      Telemetry.incr "fault.aa_quarantined";
      quarantined_aa
    end
    else -1
  | Some (aa, score) ->
    (match cursor.space with
    | Range _ ->
      t.phys_taken <- t.phys_taken + 1;
      t.phys_score_sum <- t.phys_score_sum + score
    | Vol _ ->
      t.virt_taken <- t.virt_taken + 1;
      t.virt_score_sum <- t.virt_score_sum + score);
    t.candidates_scanned <- t.candidates_scanned + Topology.aa_capacity topology aa;
    aa

(* The one refill: take an AA under the pick mutex, harvest its free VBNs
   into the ring outside it (the harvest reads only bitmap bytes of the
   freshly claimed AA, which no other domain touches); false when no AA
   with free blocks is available.  A take can harvest zero blocks even
   with a positive cached score: a ring that survived the last CP may have
   already consumed the AA's blocks that the CP re-filed it with.  Such an
   AA is simply spent — retry with the next take.  Quarantine retries are
   bounded by [qbudget] so the cacheless policies (which pick by free
   count and cannot learn) give up instead of spinning on an all-bad
   range. *)
let rec refill_aa t (sink : sink) cursor qbudget =
  (* Lazy-mount first touch: a stale space materializes its exact scores
     and cache here, before the pick trusts either. *)
  (match cursor.space with
  | Range r -> Rebuild.touch_range t.aggregate r
  | Vol (v, _) -> Rebuild.touch_vol v);
  let aa =
    Mutex.protect t.pick_mutex (fun () ->
        take_aa_locked t cursor ~can_quarantine:(qbudget > 0))
  in
  if aa = quarantined_aa then refill_aa t sink cursor (qbudget - 1)
  else
    aa >= 0
    &&
    let words0 = !(sink.words) in
    Telemetry.span_enter Span.Harvest;
    let count =
      match cursor.space with
      | Range r ->
        Aggregate.harvest_free_of_aa t.aggregate r aa ~dst:cursor.ring ~words:sink.words
      | Vol (v, _) -> Flexvol.harvest_free_of_aa v aa ~dst:cursor.ring ~words:sink.words
    in
    Telemetry.span_exit Span.Harvest;
    cursor.head <- 0;
    cursor.len <- count;
    cursor.ring_aa <- aa;
    cursor.ring_epoch <- t.epoch;
    sink.harvested <- sink.harvested + count;
    Telemetry.add "write_alloc.words_scanned" (!(sink.words) - words0);
    Telemetry.add "write_alloc.vbns_harvested" count;
    Telemetry.max_gauge "write_alloc.ring_high_water" (float_of_int count);
    count > 0 || refill_aa t sink cursor qbudget

let refill t sink cursor =
  match cursor.space with
  | Range { Aggregate.fault = Some dev; _ } when not (Wafl_fault.Fault.online dev) -> false
  | Range _ | Vol _ -> refill_aa t sink cursor 64

(* The one per-block consume loop: pop, set the bitmap bit, record the
   dirtied metafile page in [touched] and the score decrement in [delta].
   No [is_allocated] recheck (see [revalidate]); zero heap words. *)
let rec consume am touched delta cursor dst pos stop =
  if pos >= stop || cursor.head >= cursor.len then pos
  else begin
    let vbn = cursor.ring.(cursor.head) in
    cursor.head <- cursor.head + 1;
    Activemap.allocate_harvested_touched am vbn ~touched;
    Score.note_alloc_aa delta ~aa:cursor.ring_aa;
    dst.(pos) <- vbn;
    consume am touched delta cursor dst (pos + 1) stop
  end

(* Fill [dst.(pos .. stop-1)] from the cursor, refilling as rings run dry;
   returns the fill position reached.  [Gc.minor_words] brackets only the
   consume segments — refills run off the zero-allocation window. *)
let rec take_loop t sink cursor dst pos stop =
  let m0 = Gc.minor_words () in
  let pos' =
    match cursor.space with
    | Range r ->
      sink.dirty <- true;
      consume (Aggregate.activemap t.aggregate) sink.touched
        sink.deltas.(r.Aggregate.index) cursor dst pos stop
    | Vol (v, touched) ->
      consume (Flexvol.activemap v) touched (Flexvol.delta v) cursor dst pos stop
  in
  sink.consume_minor <- sink.consume_minor + int_of_float (Gc.minor_words () -. m0);
  if pos' >= stop then pos'
  else if refill t sink cursor then take_loop t sink cursor dst pos' stop
  else pos'

let take_into t sink cursor ~dst ~pos want =
  revalidate t cursor;
  take_loop t sink cursor dst pos (pos + want)

let fold_touched mf touched =
  Metafile.mark_touched_dirty mf ~touched;
  Bytes.fill touched 0 (Bytes.length touched) '\000'

(* Fold a sink's private state into the shared structures: dirtied pages,
   score deltas (in touch order, so a one-domain call leaves every delta
   exactly as direct bumps would) and harvest counters. *)
let merge_sink t sink =
  if sink.dirty then begin
    sink.dirty <- false;
    fold_touched (Aggregate.metafile t.aggregate) sink.touched;
    let ranges = Aggregate.ranges t.aggregate in
    for i = 0 to Array.length ranges - 1 do
      Score.merge_into ~src:sink.deltas.(i) ~dst:ranges.(i).Aggregate.delta
    done
  end;
  t.words := !(t.words) + !(sink.words);
  sink.words := 0;
  t.harvested <- t.harvested + sink.harvested;
  sink.harvested <- 0

let rec array_max a i best =
  if i >= Array.length a then best else array_max a (i + 1) (if a.(i) > best then a.(i) else best)

let best_score_of_range (range : Aggregate.range) =
  match range.Aggregate.fault with
  | Some dev when not (Wafl_fault.Fault.online dev) ->
    (* an offline device offers nothing, whatever its cache says *)
    0
  | _ -> (
    match range.Aggregate.cache with
    | Some c -> Cache.best_score c
    | None ->
      (* cacheless: use the true best score so throttling still works *)
      array_max range.Aggregate.scores 0 0)

(* The allocation core, top-level and closure-free: the whole call must
   allocate nothing when served from rings.  [plan] picks the eligible
   ranges and weighs them; [drive] then spreads a slice of [dst] over them
   through one cursor row.  Fill positions are absolute, so a parallel
   window drives each domain's row over its own slice of [dst]. *)

let rec filter_elig t ranges min_score i m =
  if i >= Array.length ranges then m
  else if best_score_of_range ranges.(i) >= min_score then begin
    t.elig.(m) <- i;
    filter_elig t ranges min_score (i + 1) (m + 1)
  end
  else filter_elig t ranges min_score (i + 1) m

(* Weight each range by its best AA score: emptier groups get a larger
   share of the CP's blocks (§4.2). *)
let rec weigh_elig t ranges k total =
  if k >= t.n_elig then total
  else begin
    let w = max 1 (best_score_of_range ranges.(t.elig.(k))) in
    t.weight.(k) <- w;
    weigh_elig t ranges (k + 1) (total + w)
  end

let elig_all t nr =
  for i = 0 to nr - 1 do
    t.elig.(i) <- i
  done;
  nr

let plan t =
  let ranges = Aggregate.ranges t.aggregate in
  let nr = Array.length ranges in
  t.n_elig <-
    (match (Aggregate.config t.aggregate).Config.rg_score_threshold with
    | None -> elig_all t nr
    | Some min_score ->
      let m = filter_elig t ranges min_score 0 0 in
      (* never stall entirely: fall back to every range (§3.3.1) *)
      if m > 0 then m else elig_all t nr);
  t.total_weight <- weigh_elig t ranges 0 0

let rec take_shares t sink row dst n k got =
  if k >= t.n_elig then got
  else begin
    let share = n * t.weight.(k) / t.total_weight in
    let got =
      if share > 0 then take_into t sink row.(t.elig.(k)) ~dst ~pos:got share else got
    in
    take_shares t sink row dst n (k + 1) got
  end

(* Rounding remainder and any shortfall: round-robin over eligible ranges
   until satisfied or nothing more is allocatable.  Progress is the fill
   position itself. *)
let rec mop_round t sink row dst stop k got =
  if k >= t.n_elig || got >= stop then got
  else
    mop_round t sink row dst stop (k + 1)
      (take_into t sink row.(t.elig.(k)) ~dst ~pos:got (min 64 (stop - got)))

let rec mop_up t sink row dst stop got =
  if got >= stop then got
  else begin
    let got' = mop_round t sink row dst stop 0 got in
    if got' > got then mop_up t sink row dst stop got' else got'
  end

let drive t sink row dst pos stop =
  mop_up t sink row dst stop (take_shares t sink row dst (stop - pos) 0 pos)

(* The single-threaded pass: drive every domain's row of class [cls], in
   domain order, over [dst.(pos .. n-1)] until it is full.  With one domain
   this is the whole allocation; after a parallel window it is the tail that
   drains the rings the window left behind. *)
let rec drive_rows t ~cls dst d pos n =
  if d >= Array.length t.cursors || pos >= n then pos
  else drive_rows t ~cls dst (d + 1) (drive t t.sinks.(0) t.cursors.(d).(cls) dst pos n) n

let drive_single t ~cls ~dst pos n =
  plan t;
  let pos = drive_rows t ~cls dst 0 pos n in
  for d = 0 to Array.length t.sinks - 1 do
    merge_sink t t.sinks.(d)
  done;
  pos

(* ------------------------------------------------------------------ *)
(* Parallel windows.                                                   *)

(* The pool driving parallel allocation windows, installed process-wide
   (mirrors Par.install): waflsim's [--alloc-domains N].  Kept separate
   from the scan pool so scan and allocation parallelism compose. *)
let alloc_pool : Par.t option ref = ref None

let uninstall_alloc_pool () =
  match !alloc_pool with
  | None -> ()
  | Some p ->
    alloc_pool := None;
    Par.shutdown p

let install_alloc_pool ~jobs =
  uninstall_alloc_pool ();
  if jobs > 1 then alloc_pool := Some (Par.create ~jobs)

let alloc_pool_jobs () = match !alloc_pool with Some p -> Par.jobs p | None -> 1

(* Concurrent word-at-a-time bitmap mutation is only safe when no two AAs
   can share a bitmap byte: every extent of every AA must start and end on
   a byte boundary in aggregate PVBN space.  Static per-aggregate property;
   computed once and cached. *)
let compute_par_capable t =
  Array.for_all
    (fun (r : Aggregate.range) ->
      let n = Topology.aa_count r.Aggregate.topology in
      let ok = ref true in
      for aa = 0 to n - 1 do
        List.iter
          (fun e ->
            if
              (r.Aggregate.base + Wafl_block.Extent.start e) land 7 <> 0
              || Wafl_block.Extent.len e land 7 <> 0
            then ok := false)
          (Topology.extents_of_aa r.Aggregate.topology aa)
      done;
      !ok)
    (Aggregate.ranges t.aggregate)

let parallel_capable t =
  if t.par_capable < 0 then t.par_capable <- (if compute_par_capable t then 1 else 0);
  t.par_capable = 1

let ensure_domains t jobs =
  let have = Array.length t.cursors in
  if have < jobs then begin
    t.cursors <-
      Array.init jobs (fun d ->
          if d < have then t.cursors.(d)
          else domain_rows t.aggregate ~classes:t.classes d);
    t.sinks <-
      Array.init jobs (fun d -> if d < have then t.sinks.(d) else new_sink t.aggregate)
  end

(* A parallel window: domain [d] drives its own cursor row over its own
   slice of [dst], picking under the pick mutex and consuming into its own
   sink.  The single-threaded pass then finishes the request, and the
   sinks merge in domain order.  Byte disjointness of the concurrent
   bitmap writes: the layout is byte-aligned ([parallel_capable]), each
   ring holds blocks of one AA its row claimed, and only the row's own
   domain consumes it during the window. *)
let allocate_window t pool ~cls ~dst n =
  let jobs = Par.jobs pool in
  ensure_domains t jobs;
  (* Serial prologue: materialize lazily mounted ranges (a worker must not
     rebuild), and drop rings left over from a previous epoch — their AAs
     are unclaimed again, so another row could re-harvest the very blocks
     they still hold. *)
  Array.iter (fun r -> Rebuild.touch_range t.aggregate r) (Aggregate.ranges t.aggregate);
  iter_range_cursors t (fun c ->
      if c.ring_epoch <> t.epoch then begin
        c.head <- 0;
        c.len <- 0;
        c.ring_epoch <- t.epoch
      end);
  Array.iter (fun s -> s.consume_minor <- 0) t.sinks;
  t.used_par <- true;
  plan t;
  let bounds = Par.chunk_bounds ~total:n ~align:1 ~chunks:jobs in
  let filled = Array.make jobs 0 in
  Par.run_with_slot pool ~chunks:(Array.length bounds) ~f:(fun ~slot:_ d ->
      let start, len = bounds.(d) in
      filled.(d) <- drive t t.sinks.(d) t.cursors.(d).(cls) dst start (start + len) - start);
  (* Compact the per-domain slices left-justified. *)
  let pos = ref 0 in
  Array.iteri
    (fun d (start, _len) ->
      let f = filled.(d) in
      if start <> !pos && f > 0 then Array.blit dst start dst !pos f;
      pos := !pos + f)
    bounds;
  let pos = drive_single t ~cls ~dst !pos n in
  t.last_par <-
    Array.init jobs (fun d ->
        { ps_allocated = filled.(d); ps_minor_words = t.sinks.(d).consume_minor });
  pos

let allocate_pvbns_into ?(cls = 0) t ~dst n =
  if n <= 0 then 0
  else begin
    let cls = if cls < 0 || cls >= t.classes then 0 else cls in
    match !alloc_pool with
    | Some p
      when Par.jobs p > 1
           && n >= Par.jobs p * 16
           && (Aggregate.config t.aggregate).Config.aggregate_policy = Config.Best_aa
           && parallel_capable t ->
      allocate_window t p ~cls ~dst n
    | _ -> drive_single t ~cls ~dst 0 n
  end

let temp_classes t = t.classes

let last_par_stats t = t.last_par
let claim_conflicts t = t.claim_conflicts

let allocate_vvbns_into t vol ~dst n =
  if n <= 0 then 0
  else begin
    let cursor = vol_cursor t vol in
    let sink = t.sinks.(0) in
    let got = take_into t sink cursor ~dst ~pos:0 n in
    (match cursor.space with
    | Vol (v, touched) -> fold_touched (Flexvol.metafile v) touched
    | Range _ -> ());
    merge_sink t sink;
    got
  end

(* CP boundary for one space: release every taken AA's claim (across all
   of the space's cursors — their taken lists are disjoint, the shared
   claim words block a second row from taking an owned AA), apply the
   score delta once, and make sure every taken AA is re-filed in the
   cache, even if its score did not change.  [Score.mem] answers "will
   apply emit this AA?" directly from the delta's preallocated
   accumulator, so no per-CP hash table or list concatenation is needed.
   [wear_adjust], when given, maps [(aa, score)] to the cache-filed score
   — the free-count [scores] array itself is never touched by wear. *)
let cp_finish_space ?(keep_claimed_rings = false) ?wear_adjust ~delta
    ~(scores : int array) ~cache cursors =
  let extra = ref [] in
  Array.iter
    (fun cursor ->
      (* With several class rows over shared claim words, a surviving ring
         is only safe if its AA stays claimed across the boundary: the ring
         blocks are still free in the bitmap, and an unclaimed AA could be
         picked and re-harvested by another class next CP.  Keep the claim
         (and re-enter the AA in the taken list, so a later cp_finish both
         re-files and eventually releases it); everything else releases as
         usual.  The single-row spaces pass [keep_claimed_rings = false]
         and keep the pre-routing behavior: ring kept, claim released. *)
      let keep_aa =
        if keep_claimed_rings && cursor.head < cursor.len then cursor.ring_aa else -1
      in
      let kept = ref false in
      for k = 0 to cursor.n_taken - 1 do
        let aa = cursor.taken_list.(k) in
        if aa = keep_aa then kept := true
        else Atomic.set cursor.owners.(aa) Aggregate.no_owner;
        if not (Score.mem delta ~aa) then extra := (aa, scores.(aa)) :: !extra
      done;
      cursor.n_taken <- 0;
      if !kept then push_taken cursor keep_aa
      else if keep_aa >= 0 then begin
        (* live ring whose AA we no longer own: unsafe to consume *)
        cursor.head <- 0;
        cursor.len <- 0
      end)
    cursors;
  let extra = !extra in
  let updates = Score.apply delta scores in
  match cache with
  | Some cache ->
    let updates =
      (* quarantined AAs sit on bad device ranges: never re-file them, or
         the cache would hand them right back.  Empty quarantine (the
         fault-free common case) skips the filter allocation. *)
      if Array.for_all (fun c -> Hashtbl.length c.quarantined = 0) cursors then
        List.rev_append extra updates
      else
        List.filter
          (fun (aa, _) ->
            not (Array.exists (fun c -> Hashtbl.mem c.quarantined aa) cursors))
          (List.rev_append extra updates)
    in
    let updates =
      match wear_adjust with
      | None -> updates
      | Some f -> List.map (fun (aa, score) -> (aa, (f aa score : int))) updates
    in
    Cache.cp_update cache updates
  | None -> ()

(* Worst per-erase-block wear under an AA's range-local extents — the
   per-AA wear the scorer bins.  An AA far smaller than an erase block
   inherits its block's wear; an erase-block-aligned AA is exactly one
   block's count. *)
let aa_max_wear (range : Aggregate.range) ftl aa =
  List.fold_left
    (fun acc e ->
      max acc
        (Wafl_device.Ftl.max_wear_in ftl ~start:(Wafl_block.Extent.start e)
           ~len:(Wafl_block.Extent.len e)))
    0
    (Topology.extents_of_aa range.Aggregate.topology aa)

let cp_finish t =
  t.epoch <- t.epoch + 1;
  if t.used_par then begin
    (* After a parallel window, any surviving ring holds blocks of an AA
       whose claim is about to be released and whose score re-filed; a
       later pick could re-harvest those blocks.  Drop every row's ring
       (the blocks stay free in the bitmap, nothing is lost) and start the
       next CP clean.  Without a window the one-domain rule holds: class
       rows keep their rings, and cp_finish_space holds a routed ring's AA
       claim across the boundary, so each class keeps filling the same AA
       over consecutive CPs. *)
    iter_range_cursors t (fun c ->
        c.head <- 0;
        c.len <- 0);
    t.used_par <- false
  end;
  let bias = (Aggregate.config t.aggregate).Config.streams.Config.wear_bias in
  Array.iteri
    (fun i (range : Aggregate.range) ->
      let wear_adjust =
        if bias <= 0 then None
        else
          match range.Aggregate.device with
          | Aggregate.Ssd_sim ftl ->
            let min_wear, _ = Wafl_device.Ftl.wear_spread ftl in
            Some
              (fun aa score ->
                Score.wear_adjusted ~bias ~wear:(aa_max_wear range ftl aa) ~min_wear
                  ~score)
          | _ -> None
      in
      cp_finish_space ~keep_claimed_rings:(t.classes > 1) ?wear_adjust
        ~delta:range.Aggregate.delta ~scores:range.Aggregate.scores
        ~cache:range.Aggregate.cache
        (Array.concat
           (Array.to_list (Array.map (Array.map (fun row -> row.(i))) t.cursors))))
    (Aggregate.ranges t.aggregate);
  List.iter
    (fun (vol, cursor) ->
      cp_finish_space ~delta:(Flexvol.delta vol) ~scores:(Flexvol.scores vol)
        ~cache:(Flexvol.cache vol) [| cursor |])
    t.vols

let candidates_scanned t = t.candidates_scanned
let words_scanned t = !(t.words)
let vbns_harvested t = t.harvested

let aas_taken t = t.phys_taken + t.virt_taken
let score_sum_taken t = t.phys_score_sum + t.virt_score_sum
let phys_take_trace t = (t.phys_taken, t.phys_score_sum)
let virt_take_trace t = (t.virt_taken, t.virt_score_sum)

let reset_take_stats t =
  t.phys_taken <- 0;
  t.phys_score_sum <- 0;
  t.virt_taken <- 0;
  t.virt_score_sum <- 0;
  t.candidates_scanned <- 0;
  t.words := 0;
  t.harvested <- 0
