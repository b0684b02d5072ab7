open Xpiler_ir
open Xpiler_machine
module Pass = Xpiler_passes.Pass

(** In-memory schedule database for warm-started MCTS.

    Records the best spec sequence found by prior searches, keyed by a
    kernel {!signature} — operator structure plus platform, with every
    integer literal (loop extents, indices, allocation and launch sizes)
    wildcarded, so the same operator at different shapes shares one entry.
    {!Mcts.search} consults it to replay the recorded prefix as a
    guaranteed-expanded first trajectory, which makes repeated or batch
    translations of similar kernels converge in far fewer simulations.

    Conflicts resolve most-recent-wins: rewards are not comparable across
    shapes, so the last completed search owns the entry. Bounded at 4096
    signatures; lookups happen once per search on the master domain, so the
    database never perturbs the deterministic [--jobs] replay. *)

type entry = { specs : Pass.spec list; reward : float }
type t

val create : unit -> t

val default : t
(** The process-global database used by [Core.Xpiler] when
    [Config.tuning_warm_start] is on. Tests and benches should {!create}
    private instances for isolation. *)

val signature : Platform.id -> Kernel.t -> int
(** Structural hash invariant under integer-literal changes: the same
    operator at two shapes collides (by design); different operators or
    platforms do not (modulo hashing). *)

val lookup : t -> Platform.id -> Kernel.t -> Pass.spec list option
(** The recorded best spec sequence for the kernel's signature, if any. *)

val record : t -> Platform.id -> Kernel.t -> specs:Pass.spec list -> reward:float -> unit
(** Save a search result. Empty spec lists and zero rewards are not
    recorded (nothing to replay). *)

(** {2 Durable-store integration} (see [Xpiler_store.Store]) *)

val restore : t -> signature:int -> entry -> unit
(** Reinsert a persisted entry under its recorded signature. Unlike
    {!record} this is silent — no metrics, no observer — so replaying a
    log never re-journals or re-counts what the original run already did. *)

val fold : t -> (int -> entry -> 'a -> 'a) -> 'a -> 'a
(** Fold over [(signature, entry)] pairs (order unspecified), for snapshot
    dumps. *)

val set_observer : t -> (int -> entry -> unit) option -> unit
(** Hook called (outside the database mutex) with every entry {!record}
    actually inserts; the durable store uses it to append to its
    write-ahead log. At most one observer; [None] detaches. *)
