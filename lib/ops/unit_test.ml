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

(* trial-0 verdict and repair mismatch score from one interpreter run: the
   checker's first trial and the repair hill-climb oracle draw on the same
   seeded reference inputs, so the repairer's candidate path fuses them
   instead of executing the candidate twice *)
let check_scored ?(seed = 20250706) (op : Opdef.t) shape kernel =
  let args, expected = reference_outputs_seeded ~seed op shape in
  match Interp.run kernel args with
  | exception Interp.Runtime_error m -> (Fail ("runtime error: " ^ m), max_int)
  | _ ->
    let outs = out_tensors op args in
    let bad =
      List.find_opt
        (fun (name, t) ->
          match List.assoc_opt name expected with
          | Some e -> not (Tensor.allclose ~rtol:1e-3 ~atol:1e-4 t e)
          | None -> true)
        outs
    in
    let verdict =
      match bad with
      | Some (name, t) ->
        let e = List.assoc name expected in
        Fail
          (Printf.sprintf "output %s diverges (max abs diff %.3g)" name
             (Tensor.max_abs_diff t e))
      | None -> Pass
    in
    let score =
      List.fold_left
        (fun acc (name, e) ->
          match List.assoc_opt name args with
          | Some (Interp.Buf t) -> acc + List.length (Tensor.mismatched_indices t e)
          | _ -> acc + Tensor.length e)
        0 expected
    in
    (verdict, score)

let check ?(trials = 2) ?(seed = 20250706) (op : Opdef.t) shape kernel =
  let rec trial i =
    if i >= trials then Pass
    else begin
      let args, expected = reference_outputs_seeded ~seed:(seed + (i * 7919)) op shape in
      match Interp.run kernel args with
      | exception Interp.Runtime_error m -> Fail ("runtime error: " ^ m)
      | _ -> (
        let outs = out_tensors op args in
        let bad =
          List.find_opt
            (fun (name, t) ->
              match List.assoc_opt name expected with
              | Some e -> not (Tensor.allclose ~rtol:1e-3 ~atol:1e-4 t e)
              | None -> true)
            outs
        in
        match bad with
        | Some (name, t) ->
          let e = List.assoc name expected in
          Fail
            (Printf.sprintf "output %s diverges (max abs diff %.3g)" name
               (Tensor.max_abs_diff t e))
        | None -> trial (i + 1))
    end
  in
  trial 0
