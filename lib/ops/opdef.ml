open Xpiler_ir

type op_class = Matmul | Convolution | Activation | Pooling | Elementwise | Llm

type shape = (string * int) list

type buffer_spec = {
  buf_name : string;
  dtype : Dtype.t;
  size : shape -> int;
  is_output : bool;
}

type t = {
  name : string;
  cls : op_class;
  shapes : shape list;
  buffers : buffer_spec list;
  serial : shape -> Kernel.t;
  flops : shape -> float;
}

let dim sh name =
  match List.assoc_opt name sh with
  | Some v -> v
  | None -> raise (Not_found)

(* 2^26 elements (512 MiB of float arrays) across an op's buffers; the unit
   test holds several copies of each, so a larger shape runs out of memory *)
let max_elements = 1 lsl 26

let shape_of_string t s =
  let dims = List.map fst (List.hd t.shapes) in
  let err fmt = Printf.ksprintf Result.error fmt in
  let add acc kv =
    Result.bind acc @@ fun shape ->
    match List.map String.trim (String.split_on_char '=' kv) with
    | [ k; _ ] when not (List.mem k dims) ->
      err "%s has no dimension %s (dimensions: %s)" t.name k (String.concat "," dims)
    | [ k; _ ] when List.mem_assoc k shape -> err "dimension %s given twice" k
    | [ k; v ] -> (
      match int_of_string_opt v with
      | Some n when n > 0 -> Ok ((k, n) :: shape)
      | _ -> err "dimension %s=%s is not a positive integer" k v)
    | _ -> err "bad shape component %S (expected NAME=INT)" kv
  in
  Result.bind (List.fold_left add (Ok []) (String.split_on_char ',' s)) @@ fun shape ->
  match List.find_opt (fun d -> not (List.mem_assoc d shape)) dims with
  | Some d -> err "missing dimension %s" d
  | None ->
    let shape = List.map (fun d -> (d, List.assoc d shape)) dims in
    (* buffer sizes are products of dimensions: checking the product of all
       of them first keeps the size arithmetic below from overflowing *)
    let dims_product = List.fold_left (fun acc (_, n) -> acc *. float_of_int n) 1.0 shape in
    if
      dims_product > 0x1p52
      || List.fold_left (fun acc b -> acc + b.size shape) 0 t.buffers > max_elements
    then err "shape needs more than %d tensor elements" max_elements
    else Ok shape

let class_name = function
  | Matmul -> "MatMul"
  | Convolution -> "Convolution"
  | Activation -> "Activation"
  | Pooling -> "Pooling"
  | Elementwise -> "Elementwise"
  | Llm -> "LLM"

let outputs t = List.filter (fun b -> b.is_output) t.buffers
let inputs t = List.filter (fun b -> not b.is_output) t.buffers
