type 'a t = {
  lock : Mutex.t; (* guards creation and growth only *)
  table : 'a option array Atomic.t; (* indexed by domain id *)
  make : unit -> 'a;
}

let create make = { lock = Mutex.create (); table = Atomic.make (Array.make 8 None); make }

let rec get t =
  let id = (Domain.self () :> int) in
  let table = Atomic.get t.table in
  if id < Array.length table then begin
    match table.(id) with
    | Some s -> s
    | None ->
      let s = t.make () in
      Mutex.lock t.lock;
      let table = Atomic.get t.table in
      (match table.(id) with Some _ -> () | None -> table.(id) <- Some s);
      Mutex.unlock t.lock;
      get t
  end
  else begin
    Mutex.lock t.lock;
    let table = Atomic.get t.table in
    (if id >= Array.length table then begin
       let n = ref (max 8 (Array.length table)) in
       while !n <= id do
         n := !n * 2
       done;
       Atomic.set t.table
         (Array.init !n (fun i -> if i < Array.length table then table.(i) else None))
     end);
    Mutex.unlock t.lock;
    get t
  end

let iter t f = Array.iter (function Some s -> f s | None -> ()) (Atomic.get t.table)
