(* One binary min-heap over entries held in parallel arrays, ordered by
   (key, insertion sequence).  The sequence number makes the order total,
   so entries with equal keys pop in insertion order — the delta-semantics
   invariant — and an entry added at the minimum key while that key is
   being drained still pops in the same pass, after the ones before it
   (the kernel relies on this for zero-delay [notify_after]).

   The kernel's timed queue holds one entry per armed timer, in steady
   state the clock's next edge alone, so an add and a pop move only
   array slots: nothing is allocated once the arrays have grown. *)

type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable vals : 'a array;  (** empty until the first [add] supplies a filler *)
  mutable size : int;
  mutable next_seq : int;
}

let create () = { keys = [||]; seqs = [||]; vals = [||]; size = 0; next_seq = 0 }
let is_empty q = q.size = 0
let length q = q.size

(* entry [i] orders strictly before the (key, seq) pair *)
let before q i k s =
  let ki = q.keys.(i) in
  ki < k || (ki = k && q.seqs.(i) < s)

let grow q v =
  let cap = max 16 (2 * Array.length q.keys) in
  let keys = Array.make cap 0 and seqs = Array.make cap 0 and vals = Array.make cap v in
  Array.blit q.keys 0 keys 0 q.size;
  Array.blit q.seqs 0 seqs 0 q.size;
  Array.blit q.vals 0 vals 0 q.size;
  q.keys <- keys;
  q.seqs <- seqs;
  q.vals <- vals

let set q i k s v =
  q.keys.(i) <- k;
  q.seqs.(i) <- s;
  q.vals.(i) <- v

let move q ~src ~dst = set q dst q.keys.(src) q.seqs.(src) q.vals.(src)

(* top-level rather than local closures, so an [add] or a pop allocates
   nothing *)
let rec sift_up q k s i =
  if i = 0 then i
  else
    let p = (i - 1) / 2 in
    if before q p k s then i
    else begin
      move q ~src:p ~dst:i;
      sift_up q k s p
    end

let rec sift_down q k s n i =
  let l = (2 * i) + 1 in
  if l >= n then i
  else
    let c = if l + 1 < n && before q (l + 1) q.keys.(l) q.seqs.(l) then l + 1 else l in
    if before q c k s then begin
      move q ~src:c ~dst:i;
      sift_down q k s n c
    end
    else i

let add q key value =
  if q.size = Array.length q.keys then grow q value;
  let s = q.next_seq in
  q.next_seq <- s + 1;
  set q (sift_up q key s q.size) key s value;
  q.size <- q.size + 1

let min_key q = if q.size = 0 then raise Not_found else q.keys.(0)

let pop_value q =
  if q.size = 0 then raise Not_found;
  let v = q.vals.(0) in
  let n = q.size - 1 in
  q.size <- n;
  (* sift the root hole down, then drop the last entry into it *)
  if n > 0 then move q ~src:n ~dst:(sift_down q q.keys.(n) q.seqs.(n) n 0);
  v

let pop q =
  let k = min_key q in
  (k, pop_value q)
