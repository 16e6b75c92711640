(** A stable binary min-heap keyed by integers: the kernel's timed-event
    queue.  Entries with equal keys pop in insertion order, which keeps
    simulations deterministic. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int
val add : 'a t -> int -> 'a -> unit
val min_key : 'a t -> int
(** @raise Not_found when empty. *)

val pop_value : 'a t -> 'a
(** Removes the minimum entry and returns its value; {!min_key} beforehand
    gives its key.  Allocates nothing. @raise Not_found when empty. *)

val pop : 'a t -> int * 'a
(** Removes and returns the minimum entry. @raise Not_found when empty. *)
