let swap (a : int array) i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x

(* Median-of-three quicksort over [a.(lo .. hi)], insertion sort below 16
   elements. *)
let rec sort (a : int array) lo hi =
  if hi - lo < 16 then begin
    for i = lo + 1 to hi do
      let v = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > v do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- v
    done
  end
  else begin
    let mid = (lo + hi) / 2 in
    if a.(mid) < a.(lo) then swap a mid lo;
    if a.(hi) < a.(lo) then swap a hi lo;
    if a.(hi) < a.(mid) then swap a hi mid;
    let pivot = a.(mid) in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while a.(!i) < pivot do
        incr i
      done;
      while a.(!j) > pivot do
        decr j
      done;
      if !i <= !j then begin
        swap a !i !j;
        incr i;
        decr j
      end
    done;
    sort a lo !j;
    sort a !i hi
  end

let prefix a n =
  if n < 0 || n > Array.length a then invalid_arg "Int_sort.prefix";
  sort a 0 (n - 1)
