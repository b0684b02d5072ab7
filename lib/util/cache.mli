(** Bounded, mutex-guarded memo tables; every in-process cache of a pure
    result is an instance of {!Make}. Capacity is fixed per instance: a new
    key meeting a full table first evicts half of it (arbitrary members),
    never all of it. Each instance counts hits, misses and evictions, which
    each site feeds to its own registry metrics. One optional observer sees
    every fresh insert, outside the lock, on whichever domain inserts. *)

type stats = { hits : int; misses : int; evictions : int }

type 'v lookup = {
  value : 'v;
  hit : bool;  (** present, or stored first by a racing caller *)
  evicted : int;  (** entries dropped to make room *)
}

module Make (K : Hashtbl.HashedType) : sig
  type key = K.t
  type 'v t

  val create : capacity:int -> unit -> 'v t
  (** @raise Invalid_argument if [capacity < 1]. *)

  val find : 'v t -> key -> 'v option
  (** Counts a hit or a miss. *)

  val find_or_add : 'v t -> key -> (unit -> 'v) -> 'v lookup
  (** The stored value, else [compute ()] (run outside the lock) stored and
      returned. A miss is counted once per entry inserted: a caller that
      loses an insert race gets the stored value and counts a hit, so the
      counts do not depend on the schedule. *)

  val add : 'v t -> key -> 'v -> int
  (** Insert or replace, then call the observer; returns the number of
      entries evicted. *)

  val restore : 'v t -> key -> 'v -> unit
  (** Insert or replace silently: no counts and no observer, so replaying a
      log emits none of the effects the original run recorded. *)

  val fold : (key -> 'v -> 'a -> 'a) -> 'v t -> 'a -> 'a
  (** In unspecified order, under the lock: [f] must not use the table. *)

  val length : 'v t -> int

  val clear : 'v t -> unit
  (** Drop every entry; the counts are kept. *)

  val stats : 'v t -> stats
  val reset_stats : 'v t -> unit
  val set_observer : 'v t -> (key -> 'v -> unit) option -> unit
end
