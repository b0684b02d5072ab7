open Xpiler_ir
open Xpiler_machine
open Xpiler_passes

(* largest divisor of [n] that is <= [cap] *)
let largest_divisor_leq n cap =
  let rec go best d =
    if d > n || d > cap then best else go (if n mod d = 0 then d else best) (d + 1)
  in
  go 1 1

let apply_all platform specs k =
  List.fold_left
    (fun acc spec -> Result.bind acc (Pass.apply ~platform spec))
    (Ok k) specs

(* structure of the kernel's top-level loop nest *)
let rec perfect_chain body =
  match body with
  | [ Stmt.For r ] when r.kind = Stmt.Serial -> (
    match Rewrite.const_extent r.extent with
    | Ok n -> (r.var, n) :: perfect_chain r.body
    | Error _ -> [])
  | _ -> []

(* first top-level loop, skipping allocations and annotations: (var, extent) *)
let outer_loop (k : Kernel.t) =
  let rec first = function
    | Stmt.Alloc _ :: rest | Stmt.Annot _ :: rest -> first rest
    | Stmt.For r :: _ -> Some (r.var, r.extent)
    | _ -> None
  in
  first k.Kernel.body

let is_elementwise (k : Kernel.t) =
  match k.Kernel.body with
  | [ Stmt.For { body = [ Stmt.Store _ ]; extent; _ } ] -> (
    match Rewrite.const_extent extent with Ok n -> Some n | Error _ -> None)
  | _ -> None

(* ---- SIMT idiom (CUDA / HIP) ------------------------------------------------ *)

(* tensor-core matmul: stage operands in matrix fragments and issue mma *)
let simt_matmul_specs shape =
  let b = match List.assoc_opt "b" shape with Some b -> b | None -> 1 in
  let m = Opdef.dim shape "m" and n = Opdef.dim shape "n" and k = Opdef.dim shape "k" in
  [ Pass.Cache
      { buf = "A"; scope = Scope.Fragment; direction = Memory_pass.Read; under = None;
        base = Expr.Int 0; size = b * m * k };
    Pass.Cache
      { buf = "B"; scope = Scope.Fragment; direction = Memory_pass.Read; under = None;
        base = Expr.Int 0; size = b * k * n };
    Pass.Cache
      { buf = "C"; scope = Scope.Fragment; direction = Memory_pass.Readwrite; under = None;
        base = Expr.Int 0; size = b * m * n };
    Pass.Tensorize ]

let simt_specs (k : Kernel.t) =
  match is_elementwise k with
  | Some n ->
    let threads = largest_divisor_leq n 256 in
    let var =
      match k.Kernel.body with [ Stmt.For r ] -> r.var | _ -> assert false
    in
    if threads > 1 && n / threads > 1 then
      [ Pass.Loop_split { var; factor = threads };
        Pass.Loop_bind { var = var ^ "_0"; axis = Axis.Block_x };
        Pass.Loop_bind { var = var ^ "_1"; axis = Axis.Thread_x } ]
    else [ Pass.Loop_bind { var; axis = Axis.Block_x } ]
  | None -> (
    match perfect_chain k.Kernel.body with
    | (outer, _) :: (inner, n2) :: _ when n2 <= 1024 ->
      [ Pass.Loop_bind { var = outer; axis = Axis.Block_x };
        Pass.Loop_bind { var = inner; axis = Axis.Thread_x } ]
    | (outer, _) :: _ -> [ Pass.Loop_bind { var = outer; axis = Axis.Block_x } ]
    | [] -> (
      match k.Kernel.body with
      | Stmt.Alloc _ :: Stmt.For r :: _ | Stmt.For r :: _ ->
        [ Pass.Loop_bind { var = r.var; axis = Axis.Block_x } ]
      | _ -> []))

(* ---- MLU idiom (BANG) --------------------------------------------------------- *)

let buffer_names role (op : Opdef.t) shape =
  List.filter_map
    (fun (b : Opdef.buffer_spec) ->
      if b.is_output = role then Some (b.buf_name, b.size shape) else None)
    op.buffers

let bang_elementwise_specs (op : Opdef.t) shape n var =
  if n mod 64 <> 0 then []
  else begin
    let units = n / 64 in
    let tasks = largest_divisor_leq units 8 in
    let slice = n / tasks in
    let task = Expr.Var "taskId" in
    let window = Expr.Binop (Expr.Mul, task, Expr.Int slice) in
    let split_bind =
      if tasks > 1 then
        [ Pass.Loop_split { var; factor = slice };
          Pass.Loop_bind { var = var ^ "_0"; axis = Axis.Task_id } ]
      else []
    in
    let under = if tasks > 1 then Some "taskId" else None in
    let cache_in =
      List.map
        (fun (buf, _) ->
          Pass.Cache
            { buf; scope = Scope.Nram; direction = Memory_pass.Read; under;
              base = (if tasks > 1 then window else Expr.Int 0); size = slice })
        (buffer_names false op shape)
    in
    let cache_out =
      List.map
        (fun (buf, _) ->
          Pass.Cache
            { buf; scope = Scope.Nram; direction = Memory_pass.Write; under;
              base = (if tasks > 1 then window else Expr.Int 0); size = slice })
        (buffer_names true op shape)
    in
    split_bind @ cache_in @ cache_out @ [ Pass.Tensorize ]
  end

(* the loop heading a (fill +) matmul triple nest: (var, extent) *)
let find_matmul_loop (k : Kernel.t) =
  let found = ref None in
  let is_accum_store = function
    | [ Stmt.Store { buf = c; value = Expr.Binop (Expr.Add, Expr.Load (c', _), Expr.Binop (Expr.Mul, Expr.Load _, Expr.Load _)); _ } ]
      -> String.equal c c'
    | _ -> false
  in
  let is_acc_body = function
    | [ Stmt.Let _; Stmt.For _; Stmt.Store _ ] -> true
    | body -> is_accum_store body
  in
  Stmt.iter
    (fun s ->
      match s with
      | Stmt.For { var; extent = Expr.Int m; kind = Stmt.Serial;
                   body = [ Stmt.For { kind = Stmt.Serial; body = inner; _ } ]; _ }
        when !found = None
             && (is_acc_body inner
                || match inner with
                   | [ Stmt.For { body = deepest; _ } ] -> is_accum_store deepest
                   | _ -> false) ->
        found := Some (var, m)
      | _ -> ())
    k.Kernel.body;
  !found

let bang_gemm_specs (op : Opdef.t) shape (kernel : Kernel.t) =
  let n = Opdef.dim shape "n" and k = Opdef.dim shape "k" in
  ignore op;
  let var, m =
    match find_matmul_loop kernel with
    | Some r -> r
    | None -> (
      match outer_loop kernel with
      | Some (v, Expr.Int m) -> (v, m)
      | Some (v, _) -> (v, Opdef.dim shape "m")
      | None -> invalid_arg "bang_gemm_specs: no outer loop")
  in
  let tasks = largest_divisor_leq m 8 in
  let rows = m / tasks in
  let task = Expr.Var "taskId" in
  let base sz = Expr.Binop (Expr.Mul, task, Expr.Int sz) in
  if tasks > 1 then
    [ Pass.Loop_split { var; factor = rows };
      Pass.Loop_bind { var = var ^ "_0"; axis = Axis.Task_id };
      Pass.Cache
        { buf = "A"; scope = Scope.Nram; direction = Memory_pass.Read; under = Some "taskId";
          base = base (rows * k); size = rows * k };
      Pass.Cache
        { buf = "B"; scope = Scope.Wram; direction = Memory_pass.Read; under = Some "taskId";
          base = Expr.Int 0; size = k * n };
      Pass.Cache
        { buf = "C"; scope = Scope.Nram; direction = Memory_pass.Readwrite;
          under = Some "taskId"; base = base (rows * n); size = rows * n };
      Pass.Tensorize ]
  else
    [ Pass.Cache
        { buf = "A"; scope = Scope.Nram; direction = Memory_pass.Read; under = None;
          base = Expr.Int 0; size = m * k };
      Pass.Cache
        { buf = "B"; scope = Scope.Wram; direction = Memory_pass.Read; under = None;
          base = Expr.Int 0; size = k * n };
      Pass.Cache
        { buf = "C"; scope = Scope.Nram; direction = Memory_pass.Readwrite; under = None;
          base = Expr.Int 0; size = m * n };
      Pass.Tensorize ]

let bang_row_specs (op : Opdef.t) shape (kernel : Kernel.t) =
  (* softmax / layernorm / rmsnorm: one task per row, row staged in NRAM *)
  let c = Opdef.dim shape "c" in
  let task = Expr.Var "taskId" in
  let window = Expr.Binop (Expr.Mul, task, Expr.Int c) in
  let row_var = match outer_loop kernel with Some (v, _) -> v | None -> "row" in
  let rescope_tmp =
    if List.exists (fun (b, _, _, _) -> String.equal b "tmp")
         (Stmt.allocs kernel.Kernel.body)
    then [ Pass.Rescope { buf = "tmp"; scope = Scope.Nram } ]
    else []
  in
  ignore op;
  [ Pass.Loop_bind { var = row_var; axis = Axis.Task_id } ]
  @ rescope_tmp
  @ [ Pass.Cache
        { buf = "inp"; scope = Scope.Nram; direction = Memory_pass.Read; under = Some "taskId";
          base = window; size = c };
      Pass.Cache
        { buf = "out"; scope = Scope.Nram; direction = Memory_pass.Readwrite;
          under = Some "taskId"; base = window; size = c };
      Pass.Tensorize ]

(* NHWC convolution: rows split across tasks, input staged with its halo,
   weights in WRAM, and the nest replaced by the conv intrinsic *)
let bang_conv_specs (op : Opdef.t) shape (kernel : Kernel.t) =
  ignore op;
  let h = Opdef.dim shape "h" and w = Opdef.dim shape "w" in
  let ci = Opdef.dim shape "ci" and co = Opdef.dim shape "co" in
  let wi = w + 2 in
  let oh_var =
    match outer_loop kernel with Some (v, _) -> v | None -> "oh"
  in
  let tasks = largest_divisor_leq h 8 in
  let rows = h / tasks in
  let task = Expr.Var "taskId" in
  let base sz = Expr.Binop (Expr.Mul, task, Expr.Int sz) in
  let split_bind =
    if tasks > 1 then
      [ Pass.Loop_split { var = oh_var; factor = rows };
        Pass.Loop_bind { var = oh_var ^ "_0"; axis = Axis.Task_id } ]
    else []
  in
  let under = if tasks > 1 then Some "taskId" else None in
  let in_window = if tasks > 1 then base (rows * wi * ci) else Expr.Int 0 in
  let out_window = if tasks > 1 then base (rows * w * co) else Expr.Int 0 in
  split_bind
  @ [ Pass.Cache
        { buf = "inp"; scope = Scope.Nram; direction = Memory_pass.Read; under;
          base = in_window; size = (rows + 2) * wi * ci };
      Pass.Cache
        { buf = "wgt"; scope = Scope.Wram; direction = Memory_pass.Read; under;
          base = Expr.Int 0; size = co * 9 * ci };
      Pass.Cache
        { buf = "out"; scope = Scope.Nram; direction = Memory_pass.Write; under;
          base = out_window; size = rows * w * co };
      Pass.Tensorize ]

(* batched GEMM: one task per batch entry, per-batch windows staged *)
let bang_batch_gemm_specs shape (kernel : Kernel.t) =
  let b = Opdef.dim shape "b" and m = Opdef.dim shape "m" in
  let n = Opdef.dim shape "n" and k = Opdef.dim shape "k" in
  let batch_var = match outer_loop kernel with Some (v, _) -> v | None -> "bi" in
  let task = Expr.Var "taskId" in
  let base sz = Expr.Binop (Expr.Mul, task, Expr.Int sz) in
  [ Pass.Loop_bind { var = batch_var; axis = Axis.Task_id };
    Pass.Cache
      { buf = "A"; scope = Scope.Nram; direction = Memory_pass.Read; under = Some "taskId";
        base = base (m * k); size = m * k };
    Pass.Cache
      { buf = "B"; scope = Scope.Wram; direction = Memory_pass.Read; under = Some "taskId";
        base = base (k * n); size = k * n };
    Pass.Cache
      { buf = "C"; scope = Scope.Nram; direction = Memory_pass.Readwrite;
        under = Some "taskId"; base = base (m * n); size = m * n };
    Pass.Tensorize ]
  |> fun specs -> ignore b; specs

(* GEMV: rows split across tasks, the per-row dot product vectorized as
   vec_mul + reduce_sum over NRAM-staged operands *)
let bang_gemv_specs shape (kernel : Kernel.t) =
  let m = Opdef.dim shape "m" and k = Opdef.dim shape "k" in
  let var = match outer_loop kernel with Some (v, _) -> v | None -> "i" in
  let tasks = largest_divisor_leq m 8 in
  let rows = m / tasks in
  let task = Expr.Var "taskId" in
  let split_bind =
    if tasks > 1 then
      [ Pass.Loop_split { var; factor = rows };
        Pass.Loop_bind { var = var ^ "_0"; axis = Axis.Task_id } ]
    else []
  in
  let under = if tasks > 1 then Some "taskId" else None in
  split_bind
  @ [ Pass.Cache
        { buf = "A"; scope = Scope.Nram; direction = Memory_pass.Read; under;
          base = (if tasks > 1 then Expr.Binop (Expr.Mul, task, Expr.Int (rows * k)) else Expr.Int 0);
          size = rows * k };
      Pass.Cache
        { buf = "x"; scope = Scope.Nram; direction = Memory_pass.Read; under;
          base = Expr.Int 0; size = k };
      Pass.Tensorize ]

(* self attention: one task per query row; Q row, K, V and the score vector
   staged in NRAM so the QK dot products and the softmax tensorize *)
let bang_attention_specs shape (kernel : Kernel.t) =
  let s = Opdef.dim shape "s" and dm = Opdef.dim shape "d" in
  let qvar = match outer_loop kernel with Some (v, _) -> v | None -> "i" in
  let task = Expr.Var "taskId" in
  [ Pass.Loop_bind { var = qvar; axis = Axis.Task_id };
    Pass.Rescope { buf = "scores"; scope = Scope.Nram };
    Pass.Cache
      { buf = "Q"; scope = Scope.Nram; direction = Memory_pass.Read; under = Some "taskId";
        base = Expr.Binop (Expr.Mul, task, Expr.Int dm); size = dm };
    Pass.Cache
      { buf = "K"; scope = Scope.Nram; direction = Memory_pass.Read; under = Some "taskId";
        base = Expr.Int 0; size = s * dm };
    Pass.Cache
      { buf = "V"; scope = Scope.Nram; direction = Memory_pass.Read; under = Some "taskId";
        base = Expr.Int 0; size = s * dm };
    Pass.Tensorize ]

let bang_specs (op : Opdef.t) shape (k : Kernel.t) =
  match op.Opdef.name with
  | "gemm" -> bang_gemm_specs op shape k
  | "batch_gemm" -> bang_batch_gemm_specs shape k
  | "gemv" -> bang_gemv_specs shape k
  | "self_attention" -> bang_attention_specs shape k
  | "conv2d_nhwc" -> bang_conv_specs op shape k
  | "softmax" | "layernorm" | "rmsnorm" -> bang_row_specs op shape k
  | _ -> (
    match is_elementwise k with
    | Some n -> (
      match k.Kernel.body with
      | [ Stmt.For r ] -> bang_elementwise_specs op shape n r.var
      | _ -> [])
    | None -> (
      (* default: task-parallel outer loop *)
      match k.Kernel.body with
      | Stmt.Alloc _ :: Stmt.For r :: _ | Stmt.For r :: _ ->
        [ Pass.Loop_bind { var = r.var; axis = Axis.Task_id } ]
      | _ -> []))

(* ---- VNNI idiom ----------------------------------------------------------------- *)

let vnni_specs (k : Kernel.t) =
  (* vectorize with AVX-style intrinsics where a pattern matches *)
  ignore k;
  [ Pass.Tensorize ]

(* ---- driver ----------------------------------------------------------------------- *)

(* The idiom builders pattern-match a canonical (fully despecialized) serial
   kernel. Under skip-with-rollback the checkpoint handed to the planner may
   retain source-platform structure — e.g. the outer loop still bound when a
   despecialization pass was rolled back — so a builder that finds nothing to
   match degrades to the generic pipelines instead of raising. *)
let specs_or_empty f = try f () with Invalid_argument _ -> []

let candidate_pipelines pid (op : Opdef.t) shape (serial : Kernel.t) =
  match pid with
  | Platform.Cuda | Platform.Hip -> (
    match op.Opdef.name with
    | "gemm" | "batch_gemm" ->
      [ simt_matmul_specs shape; specs_or_empty (fun () -> simt_specs serial); [] ]
    | _ -> [ specs_or_empty (fun () -> simt_specs serial); [] ])
  | Platform.Bang -> (
    let preferred = specs_or_empty (fun () -> bang_specs op shape serial) in
    let bind_only =
      match serial.Kernel.body with
      | Stmt.Alloc _ :: Stmt.For r :: _ | Stmt.For r :: _ ->
        [ Pass.Loop_bind { var = r.var; axis = Axis.Task_id } ]
      | _ -> []
    in
    match preferred with [] -> [ bind_only; [] ] | p -> [ p; bind_only; [] ])
  | Platform.Vnni -> [ vnni_specs serial; [] ]

let pipelines_for pid (op : Opdef.t) shape (kernel : Kernel.t) =
  candidate_pipelines pid op shape kernel

(* shared by pool workers, so a plain Hashtbl would race *)
module Pipelines = Xpiler_util.Cache.Make (String)

let pipeline_cache : Pass.spec list Pipelines.t = Pipelines.create ~capacity:4096 ()

let cache_key pid (op : Opdef.t) shape =
  Printf.sprintf "%s/%s/%s" (Platform.id_to_string pid) op.Opdef.name
    (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) shape))

let golden_pipeline pid (op : Opdef.t) shape =
  let choose () =
    let platform = Platform.of_id pid in
    let serial = op.Opdef.serial shape in
    let ok k =
      match Checker.compile platform k with Ok () -> true | Error _ -> false
    in
    let chosen =
      List.find_opt
        (fun specs ->
          match apply_all platform specs serial with
          | Ok k -> ok k
          | Error _ -> false)
        (candidate_pipelines pid op shape serial)
    in
    Option.value ~default:[] chosen
  in
  (Pipelines.find_or_add pipeline_cache (cache_key pid op shape) choose).value

let source pid (op : Opdef.t) shape =
  let platform = Platform.of_id pid in
  let serial = op.Opdef.serial shape in
  match apply_all platform (golden_pipeline pid op shape) serial with
  | Ok k -> k
  | Error _ -> serial

let source_text pid op shape =
  Xpiler_lang.Codegen.emit (Xpiler_lang.Dialect.of_platform pid) (source pid op shape)
