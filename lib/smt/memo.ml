(* Process-global solver memo.

   The repair loop re-poses the same finite-domain problems over and over:
   every localization round rebuilds each site's candidate problem, every
   escalation rung re-enters repair on similar kernels, and bench sweeps
   repeat the whole thing across seeds. A solve is pure — outcome and
   models depend only on (problem, budget) — so one table can serve every
   query, exactly like the tuner's transposition table
   (lib/tuning/transposition.ml).

   Determinism contract (the receipts trick): each entry stores the
   canonical [stats] the original search produced. A hit replays those
   stats through the same [Solver.record_query] effect path a fresh solve
   uses, so the emitted charge/trace/metrics stream is a function of the
   query trajectory alone — cold vs. warm runs and jobs=1 vs. jobs=N runs
   are observably byte-identical. Only the registry hit/miss meters below
   (and wall time) reveal that the table exists.

   [max_steps] (and [limit] for model enumeration) are part of the key:
   a [Timeout] under a small budget says nothing about a larger one, so
   budgets never alias. That also makes memoizing [Timeout] and [Unsat]
   outcomes safe — they are as pure as [Sat]. *)

module Metrics = Xpiler_obs.Metrics

(* Stable: solver queries are issued from the master domain only (the
   escalation ladder and synthesis run outside the pool; speculative repair
   parallelizes candidate *testing*, not solving), so hit/miss counts are a
   deterministic function of the workload and stay jobs-invariant. *)
let m_hits =
  Metrics.counter ~help:"solver memo lookups by result" ~labels:[ ("result", "hit") ]
    "xpiler_smt_memo_lookups_total"

let m_misses =
  Metrics.counter ~labels:[ ("result", "miss") ] "xpiler_smt_memo_lookups_total"

let m_entries = Metrics.gauge ~help:"live solver memo entries" "xpiler_smt_memo_entries"

type mode = Solve | Models of { limit : int }

module Key = struct
  type t = { mode : mode; max_steps : int; problem : Problem.t }

  let equal a b = a.mode = b.mode && a.max_steps = b.max_steps && Problem.equal a.problem b.problem

  let hash k =
    let comb = Xpiler_ir.Expr.hash_comb in
    comb (comb (Hashtbl.hash k.mode) k.max_steps) (Problem.hash k.problem)
end

module KCache = Xpiler_util.Cache.Make (Key)

type payload =
  | Outcome of Problem.outcome
  | Model_list of (string * int) list list

type entry = { payload : payload; stats : Problem.stats  (** the receipt *) }

(* a repair pass touches a few dozen distinct problems; whole bench sweeps a
   few thousand — same sizing logic as the transposition table *)
let table : entry KCache.t = KCache.create ~capacity:65536 ()
let enabled = Atomic.make true
let set_observer o = KCache.set_observer table o
let set_enabled b = Atomic.set enabled b
let is_enabled () = Atomic.get enabled

let find ~mode ~max_steps problem =
  if not (Atomic.get enabled) then None
  else
    let r = KCache.find table { Key.mode; max_steps; problem } in
    Metrics.inc (match r with Some _ -> m_hits | None -> m_misses);
    r

let set_entries () = Metrics.set m_entries (float_of_int (KCache.length table))

let store ~mode ~max_steps problem entry =
  if Atomic.get enabled then begin
    ignore (KCache.add table { Key.mode; max_steps; problem } entry);
    set_entries ()
  end

let restore key entry =
  KCache.restore table key entry;
  set_entries ()

let fold f acc = KCache.fold f table acc
let hits () = (KCache.stats table).hits
let misses () = (KCache.stats table).misses
let size () = KCache.length table
let reset_stats () = KCache.reset_stats table

let clear () =
  KCache.clear table;
  Metrics.set m_entries 0.0
