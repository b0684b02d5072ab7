(* Shared transposition table for the hierarchical auto-tuner.

   MCTS root-parallel batches and repeated searches keep rediscovering the
   same (platform, kernel) states; the reward of a state — its best
   intra-tuned throughput — is pure, so one table can serve every searcher.
   Sharing therefore changes *time*, never values. The observable stream
   (virtual-clock charges, trace counters) must additionally not depend on
   who filled the table first, so entries carry a *receipt*: the canonical
   effect counts the original evaluation emitted. A hit replays the receipt,
   a miss evaluates and then emits the same receipt — the emitted stream is
   a function of the search trajectory alone, which is what preserves the
   byte-identical [--jobs] determinism guarantee.

   The reward depends on the intra-tuning parameters (candidate budget,
   pruning, composition), so they are part of the key: searches with
   different configurations never alias. *)

open Xpiler_machine
module Trace = Xpiler_obs.Trace
module Metrics = Xpiler_obs.Metrics

(* Registry metrics are unstable: lookups run inside pooled worker domains,
   so which searcher sees a hit vs. a miss depends on the schedule. The
   deterministic view of the same activity is the receipt-replayed trace
   counter stream. *)
let m_hits =
  Metrics.counter ~stable:false ~help:"transposition table lookups by result"
    ~labels:[ ("result", "hit") ] "xpiler_transposition_lookups_total"

let m_misses =
  Metrics.counter ~stable:false ~labels:[ ("result", "miss") ] "xpiler_transposition_lookups_total"

let m_evals =
  Metrics.counter ~stable:false ~help:"fresh reward evaluations (sharing on or off)"
    "xpiler_transposition_evals_total"

let m_evictions =
  Metrics.counter ~stable:false ~help:"entries dropped by capacity eviction"
    "xpiler_transposition_evictions_total"

let m_entries =
  Metrics.gauge ~stable:false ~help:"live transposition table entries" "xpiler_transposition_entries"

type entry = {
  reward : float;  (** best intra-tuned throughput; 0 for non-compiling states *)
  evaluated : int;  (** intra variants measured by the original evaluation *)
  pruned : int;  (** intra variants skipped by bound-based pruning *)
}

module Key = struct
  type t = {
    platform : Platform.id;
    budget : int;
    prune : bool;
    compose : bool;
    kernel : Xpiler_ir.Kernel.t;
  }

  let equal a b =
    a.platform = b.platform && a.budget = b.budget && a.prune = b.prune
    && a.compose = b.compose
    && Xpiler_ir.Kernel.equal a.kernel b.kernel

  let hash k =
    let comb = Xpiler_ir.Expr.hash_comb in
    comb
      (comb
         (comb (Hashtbl.hash k.platform) k.budget)
         (Hashtbl.hash (k.prune, k.compose)))
      (Xpiler_ir.Kernel.hash k.kernel)
end

module KCache = Xpiler_util.Cache.Make (Key)

(* sized like the intra memos: a full search touches a few thousand states *)
let table : entry KCache.t = KCache.create ~capacity:65536 ()
let set_observer o = KCache.set_observer table o

(* fresh reward evaluations, including ones made with sharing off, so
   benches can compare baseline and shared searches with one meter *)
let eval_count = Atomic.make 0

let key ~platform ~budget ~prune ~compose kernel =
  { Key.platform; budget; prune; compose; kernel }

let note_insert dropped =
  Metrics.set m_entries (float_of_int (KCache.length table));
  if dropped > 0 then begin
    Metrics.inc ~n:dropped m_evictions;
    Trace.count ~n:dropped "mcts.tt_evictions"
  end

(* root-parallel searchers can evaluate one state at the same time; the
   first to finish inserts it and the others take its entry, so the
   observer (the durable store's write-through) sees every state once,
   whatever the schedule *)
let find_or_add ~platform ~budget ~prune ~compose kernel evaluate =
  let r = KCache.find_or_add table (key ~platform ~budget ~prune ~compose kernel) evaluate in
  Metrics.inc (if r.hit then m_hits else m_misses);
  if not r.hit then note_insert r.evicted;
  r.value

let store ~platform ~budget ~prune ~compose kernel entry =
  note_insert (KCache.add table (key ~platform ~budget ~prune ~compose kernel) entry)

(* silent: a replay must not emit the eviction trace counts the original
   run never produced *)
let restore k entry =
  KCache.restore table k entry;
  Metrics.set m_entries (float_of_int (KCache.length table))

let fold f acc = KCache.fold f table acc

let count_eval () =
  Metrics.inc m_evals;
  Atomic.incr eval_count

let size () = KCache.length table
let hits () = (KCache.stats table).hits
let misses () = (KCache.stats table).misses
let evals () = Atomic.get eval_count

let reset_stats () =
  KCache.reset_stats table;
  Atomic.set eval_count 0

let clear () =
  Metrics.set m_entries 0.0;
  KCache.clear table;
  reset_stats ()
