open Xpiler_ir
open Xpiler_machine

type verdict = Pass | Fail of string

let make_args rng (op : Opdef.t) shape =
  List.map
    (fun (b : Opdef.buffer_spec) ->
      let size = b.size shape in
      let t =
        if b.is_output then Tensor.create ~dtype:b.dtype size
        else Tensor.random rng ~dtype:b.dtype size
      in
      (b.buf_name, Interp.Buf t))
    op.buffers

let clone args =
  List.map
    (fun (n, a) ->
      match a with Interp.Buf t -> (n, Interp.Buf (Tensor.copy t)) | s -> (n, s))
    args

let out_tensors (op : Opdef.t) args =
  List.filter_map
    (fun (b : Opdef.buffer_spec) ->
      if b.is_output then
        match List.assoc_opt b.buf_name args with
        | Some (Interp.Buf t) -> Some (b.buf_name, t)
        | _ -> None
      else None)
    op.buffers

let reference_outputs rng op shape =
  let args = make_args rng op shape in
  let ref_args = clone args in
  let _ = Interp.run (op.serial shape) ref_args in
  (args, out_tensors op ref_args)

(* Reference outputs are deterministic in (op, shape, seed), and the checker
   re-runs the same op/shape/seed for every candidate kernel — cache the
   serial reference run. Hits additionally require the *same* [Opdef.t]
   (physical identity): fuzzers build throwaway ops that could reuse a name. *)
module Ref_cache = Xpiler_util.Cache.Make (struct
  type t = Opdef.t * (string * int) list * int

  let equal (op, shape, seed) (op', shape', seed') = op == op' && shape = shape' && seed = seed'
  let hash ((op : Opdef.t), shape, seed) = Hashtbl.hash (op.name, shape, seed)
end)

let ref_cache : ((string * Interp.arg) list * (string * Tensor.t) list) Ref_cache.t =
  Ref_cache.create ~capacity:256 ()

let clone_outs outs = List.map (fun (n, t) -> (n, Tensor.copy t)) outs

let reference_outputs_seeded ~seed (op : Opdef.t) shape =
  let r =
    Ref_cache.find_or_add ref_cache (op, shape, seed) (fun () ->
        reference_outputs (Xpiler_util.Rng.create seed) op shape)
  in
  let args, outs = r.value in
  (clone args, clone_outs outs)

let default_seed = 20250706

(* trial [i] of a check seeded [seed] draws its inputs from this seed *)
let trial_seed seed i = seed + (i * 7919)

let verdict_of (op : Opdef.t) args expected =
  let bad =
    List.find_opt
      (fun (name, t) ->
        match List.assoc_opt name expected with
        | Some e -> not (Tensor.allclose ~rtol:1e-3 ~atol:1e-4 t e)
        | None -> true)
      (out_tensors op args)
  in
  match bad with
  | Some (name, t) ->
    let e = List.assoc name expected in
    Fail (Printf.sprintf "output %s diverges (max abs diff %.3g)" name (Tensor.max_abs_diff t e))
  | None -> Pass

let score_of args expected =
  List.fold_left
    (fun acc (name, e) ->
      match List.assoc_opt name args with
      | Some (Interp.Buf t) -> acc + List.length (Tensor.mismatched_indices t e)
      | _ -> acc + Tensor.length e)
    0 expected

(* one seeded execution of [kernel]; [Error] carries the runtime error *)
let execute ~seed op shape kernel =
  let args, expected = reference_outputs_seeded ~seed op shape in
  match Interp.run kernel args with
  | exception Interp.Runtime_error m -> Error m
  | _ -> Ok (args, expected)

(* trial-0 verdict and repair mismatch score from one interpreter run: the
   checker's first trial and the repair hill-climb oracle draw on the same
   seeded reference inputs, so the repairer's candidate path fuses them
   instead of executing the candidate twice *)
let check_scored ?(seed = default_seed) op shape kernel =
  match execute ~seed op shape kernel with
  | Error m -> (Fail ("runtime error: " ^ m), max_int)
  | Ok (args, expected) -> (verdict_of op args expected, score_of args expected)

let mismatch_score ?(seed = default_seed) op shape kernel =
  match execute ~seed op shape kernel with
  | Error _ -> max_int
  | Ok (args, expected) -> score_of args expected

let check ?(trials = 2) ?(seed = default_seed) op shape kernel =
  let rec trial i =
    if i >= trials then Pass
    else
      match execute ~seed:(trial_seed seed i) op shape kernel with
      | Error m -> Fail ("runtime error: " ^ m)
      | Ok (args, expected) -> (
        match verdict_of op args expected with Pass -> trial (i + 1) | fail -> fail)
  in
  trial 0

(* ---- the verdict memo -------------------------------------------------------

   A trial's verdict is a pure function of (trial seed, op, shape, kernel),
   and the pipeline keeps regenerating the same kernels: one op at one shape
   converges to the same intermediate kernels in every direction, finalize
   re-tests the kernel the last pass just validated, [try_pipelines]
   restarts from its base, and repair rounds re-test their candidates. So
   every trial is memoized on its own, and a [~trials:2] check reuses the
   verdict of an earlier [~trials:1] check as its first trial.

   - The kernel is keyed by [Kernel.cache_key] (content digest), not by
     [Kernel.equal]: [Float.equal] and [Hashtbl.hash] identify 0.0 with
     -0.0, so structural equality aliases kernels that compute different
     results (1.0 / 0.0 vs 1.0 / -0.0).
   - The op is keyed by physical identity, like the reference cache, so
     throwaway fuzz ops that reuse a name cannot collide.
   - Off while [Xpiler_smt.Memo] is disabled, so the repair bench's baseline
     arm runs memo-free, and bypassed while tracing: a fresh run emits
     interp.* trace counts that a hit could not replay, and cold-vs-warm
     journal byte-identity outranks speed. Speculative repair tasks run
     under [Trace.without], so they always use it. *)

module Memo_key = struct
  type t = { seed : int; op : Opdef.t; shape : Opdef.shape; kernel : string }

  let equal a b =
    a.seed = b.seed && a.op == b.op && a.shape = b.shape && String.equal a.kernel b.kernel

  let hash a = Hashtbl.hash (a.seed, a.op.Opdef.name, a.shape, a.kernel)
end

module Verdicts = Xpiler_util.Cache.Make (Memo_key)

(* the mismatch score is filled in only by the scored entry points *)
type entry = { verdict : verdict; score : int option }

let memo_capacity = 8192
let memo : entry Verdicts.t = Verdicts.create ~capacity:memo_capacity ()
let reset_memo () = Verdicts.clear memo
let memo_length () = Verdicts.length memo
let memo_stats () = Verdicts.stats memo

module Metrics = Xpiler_obs.Metrics

(* hit/miss order races between speculating domains -> unstable class *)
let m_memo_hit =
  Metrics.counter ~stable:false ~help:"unit-test verdict-memo lookups (one per trial) by result"
    ~labels:[ ("result", "hit") ] "xpiler_repair_verdict_memo_lookups_total"

let m_memo_miss =
  Metrics.counter ~stable:false ~labels:[ ("result", "miss") ]
    "xpiler_repair_verdict_memo_lookups_total"

let count_lookup hit = Metrics.inc (if hit then m_memo_hit else m_memo_miss)
let memo_active () = Xpiler_smt.Memo.is_enabled () && not (Xpiler_obs.Trace.enabled ())
let key ~seed op shape kernel = { Memo_key.seed; op; shape; kernel }

(* verdict work, memo lookup included, is profiled under one span *)
let profiled f = Xpiler_obs.Prof.span "unit-test" f

let verdict ?(trials = 2) ?(seed = default_seed) op shape kernel =
  profiled @@ fun () ->
  if not (memo_active ()) then check ~trials ~seed op shape kernel
  else begin
    let kernel_key = Kernel.cache_key kernel in
    let rec go i =
      if i >= trials then Pass
      else begin
        let seed = trial_seed seed i in
        let r =
          Verdicts.find_or_add memo (key ~seed op shape kernel_key) (fun () ->
              { verdict = check ~trials:1 ~seed op shape kernel; score = None })
        in
        count_lookup r.hit;
        match r.value.verdict with Pass -> go (i + 1) | fail -> fail
      end
    in
    go 0
  end

(* an entry stored by [verdict] has no score yet: scoring it re-runs the
   kernel and completes the entry *)
let scored_memo ~seed op shape kernel =
  let k = key ~seed op shape (Kernel.cache_key kernel) in
  match Verdicts.find memo k with
  | Some { verdict; score = Some score } ->
    count_lookup true;
    (verdict, score)
  | _ ->
    count_lookup false;
    let verdict, score = check_scored ~seed op shape kernel in
    ignore (Verdicts.add memo k { verdict; score = Some score });
    (verdict, score)

let verdict_scored ?(seed = default_seed) op shape kernel =
  profiled @@ fun () ->
  if memo_active () then scored_memo ~seed op shape kernel
  else check_scored ~seed op shape kernel

let score ?(seed = default_seed) op shape kernel =
  profiled @@ fun () ->
  if memo_active () then snd (scored_memo ~seed op shape kernel)
  else mismatch_score ~seed op shape kernel
