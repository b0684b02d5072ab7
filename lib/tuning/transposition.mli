open Xpiler_machine

(** Shared transposition table for MCTS reward evaluations.

    Maps a state — [(platform, intra budget, prune, compose, kernel)], keyed
    by the structural {!Xpiler_ir.Kernel.hash}/[equal] — to the reward of
    its intra-pass tuning plus a *receipt* of the effects the original
    evaluation emitted (variants measured, variants pruned). The table is
    mutex-protected and process-global: root-parallel MCTS batches and
    successive searches all share it, so a state is intra-tuned once per
    process instead of once per searcher.

    Rewards are pure, so sharing changes wall-clock time only, never values.
    Observable effects are kept deterministic by the receipt discipline (see
    {!Mcts}): both a table hit and a fresh evaluation emit exactly the
    receipt's canonical stream, so charges and trace counters depend only on
    the search trajectory, not on which searcher populated the table first —
    preserving the byte-identical [--jobs] guarantee.

    At capacity (65536 entries) half the table is evicted (never a full
    reset), traced as [mcts.tt_evictions]. *)

type entry = {
  reward : float;  (** best intra-tuned throughput; 0 for non-compiling states *)
  evaluated : int;  (** intra variants measured by the original evaluation *)
  pruned : int;  (** intra variants skipped by bound-based pruning *)
}

(** The full table key, exposed for the durable store (snapshot dumps,
    write-ahead-log records and last-wins compaction). *)
module Key : sig
  type t = {
    platform : Platform.id;
    budget : int;
    prune : bool;
    compose : bool;
    kernel : Xpiler_ir.Kernel.t;
  }

  val equal : t -> t -> bool
  val hash : t -> int
end

val find_or_add :
  platform:Platform.id -> budget:int -> prune:bool -> compose:bool ->
  Xpiler_ir.Kernel.t -> (unit -> entry) -> entry
(** The stored entry, else the evaluation's (run outside the table lock),
    stored. Counted as a hit or a miss in {!hits}/{!misses}. Of concurrent
    evaluations of one state only the first is stored (the others count a
    hit and return it), so the observer sees each state once. *)

val store :
  platform:Platform.id -> budget:int -> prune:bool -> compose:bool ->
  Xpiler_ir.Kernel.t -> entry -> unit
(** Insert or replace unconditionally. *)

val count_eval : unit -> unit
(** Record one fresh reward evaluation (an actual [Intra.tune] run). {!Mcts}
    calls this on every table miss *and* when sharing is disabled, so
    benches can compare search modes with a single meter. *)

val size : unit -> int
val hits : unit -> int
val misses : unit -> int
val evals : unit -> int

val reset_stats : unit -> unit
(** Zero the hit/miss/eval counters, keeping the entries. *)

val clear : unit -> unit
(** Drop all entries and zero the counters (bench/test isolation). *)

(** {2 Durable-store integration} (see [Xpiler_store.Store]) *)

val restore : Key.t -> entry -> unit
(** Reinsert a persisted entry. Silent — no hit/miss counts, no eviction
    traces, no observer — so replaying a log emits none of the effects the
    original run already journaled. Capacity eviction still applies. *)

val fold : (Key.t -> entry -> 'a -> 'a) -> 'a -> 'a
(** Fold over the live entries (order unspecified), for snapshot dumps. *)

val set_observer : (Key.t -> entry -> unit) option -> unit
(** Hook called on every fresh insert ({!find_or_add} miss, {!store}) —
    outside the table mutex, possibly from pool worker domains, so the
    observer must synchronize internally. The durable store uses it to
    append to its write-ahead log. *)
