type stats = { hits : int; misses : int; evictions : int }
type 'v lookup = { value : 'v; hit : bool; evicted : int }

module Make (K : Hashtbl.HashedType) = struct
  (* keys carry their hash, computed once per operation outside the lock:
     structural kernel hashes walk the whole body, and one operation may
     probe the table three times *)
  module Tbl = Hashtbl.Make (struct
    type t = int * K.t

    let equal (h, a) (h', b) = h = h' && K.equal a b
    let hash (h, _) = h
  end)

  type key = K.t

  type 'v t = {
    mutex : Mutex.t;
    tbl : 'v Tbl.t;
    capacity : int;
    mutable observer : (key -> 'v -> unit) option;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let create ~capacity () =
    if capacity < 1 then invalid_arg "Cache.create: capacity must be positive";
    { mutex = Mutex.create (); tbl = Tbl.create (min capacity 256); capacity; observer = None;
      hits = 0; misses = 0; evictions = 0 }

  let locked t f = Mutex.protect t.mutex f

  (* the only way a key enters the table: a new key meeting a full table
     first evicts every other member in fold order; returns the count *)
  let insert_locked t k v =
    let dropped =
      if Tbl.length t.tbl < t.capacity || Tbl.mem t.tbl k then 0
      else begin
        let keys = Tbl.fold (fun k _ acc -> k :: acc) t.tbl [] in
        let victims = List.filteri (fun i _ -> i land 1 = 0) keys in
        List.iter (Tbl.remove t.tbl) victims;
        List.length victims
      end
    in
    Tbl.replace t.tbl k v;
    dropped

  let add_locked t k v =
    let dropped = insert_locked t k v in
    t.evictions <- t.evictions + dropped;
    dropped

  let hit_locked t value =
    t.hits <- t.hits + 1;
    { value; hit = true; evicted = 0 }

  let notify observer k v = Option.iter (fun f -> f k v) observer

  let hashed k = (K.hash k, k)

  let find t k =
    let hk = hashed k in
    locked t (fun () ->
        let r = Tbl.find_opt t.tbl hk in
        (match r with Some _ -> t.hits <- t.hits + 1 | None -> t.misses <- t.misses + 1);
        r)

  let add t k v =
    let hk = hashed k in
    let dropped, observer = locked t (fun () -> (add_locked t hk v, t.observer)) in
    notify observer k v;
    dropped

  let find_or_add t k compute =
    let hk = hashed k in
    match locked t (fun () -> Option.map (hit_locked t) (Tbl.find_opt t.tbl hk)) with
    | Some r -> r
    | None ->
      let v = compute () in
      let r, observer =
        locked t (fun () ->
            match Tbl.find_opt t.tbl hk with
            | Some stored -> (hit_locked t stored, None)
            | None ->
              t.misses <- t.misses + 1;
              ({ value = v; hit = false; evicted = add_locked t hk v }, t.observer))
      in
      notify observer k v;
      r

  let restore t k v =
    let hk = hashed k in
    locked t (fun () -> ignore (insert_locked t hk v))

  let fold f t acc = locked t (fun () -> Tbl.fold (fun (_, k) v acc -> f k v acc) t.tbl acc)
  let length t = locked t (fun () -> Tbl.length t.tbl)
  let clear t = locked t (fun () -> Tbl.reset t.tbl)
  let stats t = locked t (fun () -> { hits = t.hits; misses = t.misses; evictions = t.evictions })

  let reset_stats t =
    locked t (fun () ->
        t.hits <- 0;
        t.misses <- 0;
        t.evictions <- 0)

  let set_observer t o = locked t (fun () -> t.observer <- o)
end
