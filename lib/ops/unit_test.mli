open Xpiler_ir
open Xpiler_machine

(** Unit-test oracle: run a candidate kernel against the operator's canonical
    sequential reference on random inputs (the paper's *computation accuracy*
    check). *)

type verdict = Pass | Fail of string

val make_args :
  Xpiler_util.Rng.t -> Opdef.t -> Opdef.shape -> (string * Interp.arg) list
(** Random inputs, zero-filled outputs, ordered as the kernel's parameters. *)

val reference_outputs :
  Xpiler_util.Rng.t -> Opdef.t -> Opdef.shape -> (string * Interp.arg) list * (string * Tensor.t) list
(** Inputs plus the outputs the serial reference produces on them. *)

val reference_outputs_seeded :
  seed:int -> Opdef.t -> Opdef.shape -> (string * Interp.arg) list * (string * Tensor.t) list
(** Like {!reference_outputs} with [Rng.create seed], but the serial
    reference run is cached per (op, shape, seed) — the checker replays the
    same oracle for every candidate kernel. Returned buffers are private
    copies; mutating them never corrupts the cache. A hit requires the same
    [Opdef.t] value (physical identity), so regenerated fuzz ops that reuse
    a name cannot collide. *)

val check_scored : ?seed:int -> Opdef.t -> Opdef.shape -> Kernel.t -> verdict * int
(** One interpreter run yielding both the trial-0 verdict (identical to
    [check ~trials:1 ~seed]) and the repair mismatch score (identical to
    {!mismatch_score}). The repairer's candidate path uses this to avoid
    executing a failing candidate twice (once to test, once to score). *)

val mismatch_score : ?seed:int -> Opdef.t -> Opdef.shape -> Kernel.t -> int
(** The number of expected-output elements the kernel gets wrong on the
    seeded inputs (at a tighter tolerance than the verdict's), [max_int] on
    a runtime error: the repairer's hill-climb oracle when several faults
    coexist. *)

val check : ?trials:int -> ?seed:int -> Opdef.t -> Opdef.shape -> Kernel.t -> verdict
(** Execute the candidate on [trials] fresh random input sets (default 2) and
    compare every output buffer to the reference. Trial [i] draws from seed
    [seed + i * 7919] ([seed] defaults to 20250706, as everywhere in this
    module). Runtime errors (out of bounds, unbound names, fuel) are
    failures. Never memoized: this is the oracle the memoized entry points
    below must agree with. *)

(** {2 Memoized verdicts}

    The pipeline's validation, finalize and post-tuning checks and the
    repairer's candidate tests go through these. Each trial's verdict is
    memoized process-globally on its own, keyed by trial seed, op (physical
    identity), shape and {!Kernel.cache_key} (a content digest, so kernels
    differing only in a [0.0] vs [-0.0] literal never share an entry); the
    table holds at most {!memo_capacity} entries. The memo is off while
    [Xpiler_smt.Memo] is disabled and bypassed while a tracer is installed,
    so traced journals are byte-identical whether it is cold or warm. Each
    call runs under the profiler span ["unit-test"]. *)

val verdict : ?trials:int -> ?seed:int -> Opdef.t -> Opdef.shape -> Kernel.t -> verdict
(** Equal to {!check} with the same arguments, [Fail] message included. A
    [~trials:2] call after a [~trials:1] call reuses the first trial. *)

val verdict_scored : ?seed:int -> Opdef.t -> Opdef.shape -> Kernel.t -> verdict * int
(** Equal to {!check_scored}; the entry also answers later {!verdict} and
    {!score} calls. *)

val score : ?seed:int -> Opdef.t -> Opdef.shape -> Kernel.t -> int
(** Equal to {!mismatch_score}. *)

val memo_capacity : int
val memo_length : unit -> int

val memo_stats : unit -> Xpiler_util.Cache.stats
(** Lookups and evictions since start; {!reset_memo} keeps the counts. *)

val reset_memo : unit -> unit
(** Drop every memoized verdict. *)
