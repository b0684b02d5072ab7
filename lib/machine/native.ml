open Xpiler_ir

(* Native kernel backend: lower a kernel to OCaml source, compile it
   out-of-process with [ocamlfind ocamlopt -shared], [Dynlink] the resulting
   [.cmxs], and run it through a positional ABI record. The generated plugin
   is fully self-contained: it carries a private copy of the evaluation
   runtime (value type, scalar operators, intrinsic semantics, the barrier
   effect and fiber scheduler), transcribed verbatim from [Compile], so the
   two engines agree statement-for-statement — same numerical results, same
   statistics, same error messages, same fiber interleaving.

   Artifacts are content-addressed by [Kernel.cache_key] salted with
   [codegen_version] and live on disk (XPILER_CACHE_DIR, default
   ~/.cache/xpiler) behind an in-process memo. Every infrastructure failure
   (no toolchain, bytecode host, compile error, corrupt artifact) degrades to
   [None] so [Interp.run] can fall back to the closure engine. *)

module Metrics = Xpiler_obs.Metrics
module Prof = Xpiler_obs.Prof
module Trace = Xpiler_obs.Trace

let codegen_version = "native-codegen-v1"

(* The host half of the plugin handshake: the plugin registers its entry
   closure under a well-known name; [caml_named_value] retrieves it. *)
external named_value : string -> Obj.t option = "xpiler_native_named_value"

(* Referencing [Callback] here guarantees Stdlib__Callback (and its
   registration table) is linked into any host executable, which the plugin's
   own [Callback.register] requires. *)
let () = Callback.register "xpiler.native.host" (Obj.repr ())

(* Must stay field-for-field identical (names, order, types) to the [abi]
   record declared in the generated plugin prelude below: the plugin entry is
   cast with [Obj.magic], so agreement is purely structural. *)
type abi = {
  bufs : float array array;
  buf_isf : bool array;
  s_int : int array;
  s_flt : float array;
  s_isf : bool array;
  fuel : int;
  store_limit : int;
  counters : int array;  (** steps stores intrinsic_elems memcpy_elems barriers *)
  fail0 : string -> unit;
  halt0 : unit -> unit;
  trace_on : bool;
  trace : string -> int -> float -> unit;
  tally_on : bool;
  tally : string -> int -> unit;
}

(* ---- instrumentation (all schedule/host dependent, hence unstable) ------ *)

let small_seconds = [| 0.001; 0.0025; 0.005; 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.0; 2.5 |]

let m_fallbacks =
  Metrics.counter ~stable:false ~help:"runs that fell back to the closure engine"
    "xpiler_native_fallbacks_total"

let m_memo_hit =
  Metrics.counter ~stable:false ~help:"native artifact lookups by result"
    ~labels:[ ("result", "memo_hit") ] "xpiler_native_cache_lookups_total"

let m_disk_hit =
  Metrics.counter ~stable:false ~labels:[ ("result", "disk_hit") ]
    "xpiler_native_cache_lookups_total"

let m_miss =
  Metrics.counter ~stable:false ~labels:[ ("result", "miss") ] "xpiler_native_cache_lookups_total"

let m_evictions =
  Metrics.counter ~stable:false ~help:"artifacts evicted by the size-bounded LRU"
    "xpiler_native_cache_evictions_total"

let m_corrupt =
  Metrics.counter ~stable:false ~help:"cached artifacts that failed to dynlink and were dropped"
    "xpiler_native_cache_corrupt_total"

let h_codegen =
  Metrics.histogram ~stable:false ~help:"kernel-to-OCaml-source lowering wall seconds"
    ~bounds:small_seconds "xpiler_native_codegen_seconds"

let h_compile =
  Metrics.histogram ~stable:false ~help:"out-of-process ocamlopt wall seconds"
    ~bounds:small_seconds "xpiler_native_compile_seconds"

let h_dynlink =
  Metrics.histogram ~stable:false ~help:"Dynlink.loadfile wall seconds" ~bounds:small_seconds
    "xpiler_native_dynlink_seconds"

(* ---- switches ----------------------------------------------------------- *)

let enabled_flag =
  Atomic.make
    (match Sys.getenv_opt "XPILER_NATIVE" with
    | Some ("1" | "true" | "on" | "yes") -> true
    | _ -> false)

let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

let toolchain_override = ref None
let set_toolchain_override o = toolchain_override := o

let toolchain_probe =
  lazy (Sys.command "ocamlfind ocamlopt -version > /dev/null 2>&1" = 0)

let available () =
  match !toolchain_override with
  | Some b -> b
  | None -> Dynlink.is_native && Lazy.force toolchain_probe

(* ---- cache location and budget ------------------------------------------ *)

let cache_dir () =
  match Sys.getenv_opt "XPILER_CACHE_DIR" with
  | Some d when d <> "" -> d
  | _ -> (
    match Sys.getenv_opt "HOME" with
    | Some h when h <> "" -> Filename.concat (Filename.concat h ".cache") "xpiler"
    | _ -> Filename.concat (Filename.get_temp_dir_name ()) "xpiler-cache")

let limit_override = ref None
let set_cache_limit_bytes o = limit_override := o

let cache_limit_bytes () =
  match !limit_override with
  | Some n -> n
  | None -> (
    match Sys.getenv_opt "XPILER_CACHE_LIMIT_MB" with
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some mb when mb > 0 -> mb * 1024 * 1024
      | _ -> 512 * 1024 * 1024)
    | None -> 512 * 1024 * 1024)

let mkdir_p = Xpiler_util.Fsx.mkdir_p

let kernel_key k = Kernel.cache_key ~salt:codegen_version k

(* ---- codegen ------------------------------------------------------------ *)

(* The fixed plugin prelude. Everything below the [abi] record is a
   transcription of the shared runtime in [Compile] — keep the two in sync
   (the differential fuzzer cross-checks them end to end). [Fail]/[err]
   replace [Runtime_error]: the entry point converts at its boundary through
   [abi.fail0] so the host surfaces the exact same exception. *)
let prelude =
  {pre|type v = I of int | F of float

type abi = {
  bufs : float array array;
  buf_isf : bool array;
  s_int : int array;
  s_flt : float array;
  s_isf : bool array;
  fuel : int;
  store_limit : int;
  counters : int array;
  fail0 : string -> unit;
  halt0 : unit -> unit;
  trace_on : bool;
  trace : string -> int -> float -> unit;
  tally_on : bool;
  tally : string -> int -> unit;
}

exception Fail of string

let err fmt = Printf.ksprintf (fun s -> raise (Fail s)) fmt
let to_float = function I n -> float_of_int n | F f -> f
let to_int = function I n -> n | F f -> int_of_float f
let vf = to_float
let vi = to_int
let vb = function I n -> n <> 0 | F f -> f <> 0.0
let of_bool b = I (if b then 1 else 0)

let buf_get (d : float array) b i =
  if i < 0 || i >= Array.length d then
    err "out-of-bounds read %s[%d] (size %d)" b i (Array.length d)
  else Array.unsafe_get d i

let buf_set (d : float array) b i x =
  if i < 0 || i >= Array.length d then
    err "out-of-bounds write %s[%d] (size %d)" b i (Array.length d)
  else Array.unsafe_set d i x

type binop = Add | Sub | Mul | Div | Mod | Min | Max | Eq | Ne | Lt | Le | Gt | Ge | And | Or

let int_binop op a b =
  match op with
  | Add -> I (a + b)
  | Sub -> I (a - b)
  | Mul -> I (a * b)
  | Div -> if b = 0 then err "integer division by zero" else I (a / b)
  | Mod -> if b = 0 then err "integer modulo by zero" else I (a mod b)
  | Min -> I (min a b)
  | Max -> I (max a b)
  | Eq -> of_bool (a = b)
  | Ne -> of_bool (a <> b)
  | Lt -> of_bool (a < b)
  | Le -> of_bool (a <= b)
  | Gt -> of_bool (a > b)
  | Ge -> of_bool (a >= b)
  | And -> of_bool (a <> 0 && b <> 0)
  | Or -> of_bool (a <> 0 || b <> 0)

let float_binop op a b =
  match op with
  | Add -> F (a +. b)
  | Sub -> F (a -. b)
  | Mul -> F (a *. b)
  | Div -> F (a /. b)
  | Mod -> F (Float.rem a b)
  | Min -> F (Float.min a b)
  | Max -> F (Float.max a b)
  | Eq -> of_bool (a = b)
  | Ne -> of_bool (a <> b)
  | Lt -> of_bool (a < b)
  | Le -> of_bool (a <= b)
  | Gt -> of_bool (a > b)
  | Ge -> of_bool (a >= b)
  | And -> of_bool (a <> 0.0 && b <> 0.0)
  | Or -> of_bool (a <> 0.0 || b <> 0.0)

let v_bin op a b =
  match (a, b) with
  | I x, I y -> int_binop op x y
  | _ -> float_binop op (to_float a) (to_float b)

let erf_approx x =
  let s = if x < 0.0 then -1.0 else 1.0 in
  let x = Float.abs x in
  let t = 1.0 /. (1.0 +. (0.3275911 *. x)) in
  let y =
    1.0
    -. (((((1.061405429 *. t -. 1.453152027) *. t) +. 1.421413741) *. t -. 0.284496736)
         *. t +. 0.254829592)
       *. t *. exp (-.x *. x)
  in
  s *. y

type _ Effect.t += Barrier : unit Effect.t

type fiber_state = Done | Suspended of (unit -> fiber_state)

let run_fiber_group fibers =
  let open Effect.Deep in
  let start f =
    match_with f ()
      { retc = (fun () -> Done);
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Barrier ->
              Some (fun (k : (a, _) continuation) -> Suspended (fun () -> continue k ()))
            | _ -> None)
      }
  in
  let rec rounds states =
    let pending =
      List.filter_map (function Done -> None | Suspended r -> Some r) states
    in
    if pending <> [] then rounds (List.rev_map (fun r -> r ()) pending)
  in
  rounds (List.rev_map start fibers)

type iop =
  | Vec_add | Vec_sub | Vec_mul | Vec_max | Vec_min
  | Vec_exp | Vec_log | Vec_sqrt | Vec_recip | Vec_tanh | Vec_erf
  | Vec_relu | Vec_sigmoid | Vec_gelu | Vec_sign
  | Vec_scale | Vec_adds | Vec_fill | Vec_copy
  | Vec_reduce_sum | Vec_reduce_max
  | Mma | Mlp | Conv2d | Dp4a

let intrinsic_exec (intr : int ref) ~name ~(op : iop) ~(dst_t : float array) ~dname ~dst_off
    ~(srcs : (float array * string * int) array) ~(params : int array) ~fparam =
  let src n =
    if n < Array.length srcs then srcs.(n) else err "intrinsic %s: missing source %d" name n
  in
  let param n =
    if n < Array.length params then params.(n)
    else err "intrinsic %s: missing parameter %d" name n
  in
  let map2 f =
    let len = param 0 in
    let at, an, ao = src 0 in
    let bt, bn, bo = src 1 in
    for k = 0 to len - 1 do
      buf_set dst_t dname (dst_off + k) (f (buf_get at an (ao + k)) (buf_get bt bn (bo + k)))
    done;
    intr := !intr + len
  in
  let map1 f =
    let len = param 0 in
    let at, an, ao = src 0 in
    for k = 0 to len - 1 do
      buf_set dst_t dname (dst_off + k) (f (buf_get at an (ao + k)))
    done;
    intr := !intr + len
  in
  match op with
  | Vec_add -> map2 ( +. )
  | Vec_sub -> map2 ( -. )
  | Vec_mul -> map2 ( *. )
  | Vec_max -> map2 Float.max
  | Vec_min -> map2 Float.min
  | Vec_exp -> map1 exp
  | Vec_log -> map1 log
  | Vec_sqrt -> map1 sqrt
  | Vec_recip -> map1 (fun x -> 1.0 /. x)
  | Vec_tanh -> map1 tanh
  | Vec_erf -> map1 erf_approx
  | Vec_relu -> map1 (fun x -> Float.max x 0.0)
  | Vec_sigmoid -> map1 (fun x -> 1.0 /. (1.0 +. exp (-.x)))
  | Vec_gelu -> map1 (fun x -> 0.5 *. x *. (1.0 +. erf_approx (x *. 0.7071067811865476)))
  | Vec_sign -> map1 (fun x -> if x > 0.0 then 1.0 else if x < 0.0 then -1.0 else 0.0)
  | Vec_copy -> map1 Fun.id
  | Vec_scale ->
    let len = param 0 in
    let s = fparam () in
    let at, an, ao = src 0 in
    for k = 0 to len - 1 do
      buf_set dst_t dname (dst_off + k) (buf_get at an (ao + k) *. s)
    done;
    intr := !intr + len
  | Vec_adds ->
    let len = param 0 in
    let s = fparam () in
    let at, an, ao = src 0 in
    for k = 0 to len - 1 do
      buf_set dst_t dname (dst_off + k) (buf_get at an (ao + k) +. s)
    done;
    intr := !intr + len
  | Vec_fill ->
    let len = param 0 in
    let s = fparam () in
    for k = 0 to len - 1 do
      buf_set dst_t dname (dst_off + k) s
    done;
    intr := !intr + len
  | Vec_reduce_sum ->
    let len = param 0 in
    let at, an, ao = src 0 in
    let acc = ref 0.0 in
    for k = 0 to len - 1 do
      acc := !acc +. buf_get at an (ao + k)
    done;
    buf_set dst_t dname dst_off !acc;
    intr := !intr + len
  | Vec_reduce_max ->
    let len = param 0 in
    if len <= 0 then err "vec_reduce_max: empty input";
    let at, an, ao = src 0 in
    let acc = ref (buf_get at an ao) in
    for k = 1 to len - 1 do
      acc := Float.max !acc (buf_get at an (ao + k))
    done;
    buf_set dst_t dname dst_off !acc;
    intr := !intr + len
  | Mma | Mlp ->
    let m = param 0 and k = param 1 and n = param 2 in
    let at, an, ao = src 0 in
    let bt, bn, bo = src 1 in
    for r = 0 to m - 1 do
      for c = 0 to n - 1 do
        let acc = ref (buf_get dst_t dname (dst_off + (r * n) + c)) in
        for l = 0 to k - 1 do
          acc :=
            !acc +. (buf_get at an (ao + (r * k) + l) *. buf_get bt bn (bo + (l * n) + c))
        done;
        buf_set dst_t dname (dst_off + (r * n) + c) !acc
      done
    done;
    intr := !intr + (m * n * k)
  | Conv2d ->
    let co = param 0 and ci = param 1 and kh = param 2 and kw = param 3 in
    let ho = param 4 and wo = param 5 and stride = param 6 in
    let wi = ((wo - 1) * stride) + kw in
    let it, iname, io = src 0 in
    let wt, wname, wo_ = src 1 in
    for oh = 0 to ho - 1 do
      for ow = 0 to wo - 1 do
        for oc = 0 to co - 1 do
          let acc = ref (buf_get dst_t dname (dst_off + (((oh * wo) + ow) * co) + oc)) in
          for r = 0 to kh - 1 do
            for q = 0 to kw - 1 do
              for c = 0 to ci - 1 do
                let iv =
                  buf_get it iname
                    (io + (((((oh * stride) + r) * wi) + (ow * stride) + q) * ci) + c)
                in
                let wv = buf_get wt wname (wo_ + (((((oc * kh) + r) * kw) + q) * ci) + c) in
                acc := !acc +. (iv *. wv)
              done
            done
          done;
          buf_set dst_t dname (dst_off + (((oh * wo) + ow) * co) + oc) !acc
        done
      done
    done;
    intr := !intr + (ho * wo * co * kh * kw * ci)
  | Dp4a ->
    let len = param 0 in
    if len mod 4 <> 0 then err "dp4a: length %d not a multiple of 4" len;
    let at, an, ao = src 0 in
    let bt, bn, bo = src 1 in
    for g = 0 to (len / 4) - 1 do
      let acc = ref (buf_get dst_t dname (dst_off + g)) in
      for j = 0 to 3 do
        acc :=
          !acc
          +. (buf_get at an (ao + (g * 4) + j) *. buf_get bt bn (bo + (g * 4) + j))
      done;
      buf_set dst_t dname (dst_off + g) !acc
    done;
    intr := !intr + len

|pre}

let iop_ctor : Intrin.op -> string = function
  | Vec_add -> "Vec_add"
  | Vec_sub -> "Vec_sub"
  | Vec_mul -> "Vec_mul"
  | Vec_max -> "Vec_max"
  | Vec_min -> "Vec_min"
  | Vec_exp -> "Vec_exp"
  | Vec_log -> "Vec_log"
  | Vec_sqrt -> "Vec_sqrt"
  | Vec_recip -> "Vec_recip"
  | Vec_tanh -> "Vec_tanh"
  | Vec_erf -> "Vec_erf"
  | Vec_relu -> "Vec_relu"
  | Vec_sigmoid -> "Vec_sigmoid"
  | Vec_gelu -> "Vec_gelu"
  | Vec_sign -> "Vec_sign"
  | Vec_scale -> "Vec_scale"
  | Vec_adds -> "Vec_adds"
  | Vec_fill -> "Vec_fill"
  | Vec_copy -> "Vec_copy"
  | Vec_reduce_sum -> "Vec_reduce_sum"
  | Vec_reduce_max -> "Vec_reduce_max"
  | Mma -> "Mma"
  | Mlp -> "Mlp"
  | Conv2d -> "Conv2d"
  | Dp4a -> "Dp4a"

(* codegen environment: IR names resolved to generated identifiers. [KInt]
   and [KFloat] mirror the closure compiler's [Unboxed]/[Fboxed] slots (the
   licences for the unboxed compilation paths); [KVal] is an immutable boxed
   binding, [KRef] a mutable one ([Assign]ed somewhere in the kernel). *)
type kind = KInt | KFloat | KVal | KRef
type bisf = Bstat of bool | Bdyn of string
type genv = { sv : (string * (string * kind)) list; bv : (string * (string * bisf)) list }

let sanitize s =
  String.map (fun c -> match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_') s

let flit f =
  if f <> f then "(Float.nan)"
  else if f = infinity then "Float.infinity"
  else if f = neg_infinity then "Float.neg_infinity"
  else Printf.sprintf "(%h)" f

let ilit n = Printf.sprintf "(%d)" n

let funop_txt (op : Expr.unop) x =
  match op with
  | Exp -> "exp " ^ x
  | Log -> "log " ^ x
  | Sqrt -> "sqrt " ^ x
  | Rsqrt -> "1.0 /. sqrt " ^ x
  | Tanh -> "tanh " ^ x
  | Erf -> "erf_approx " ^ x
  | Recip -> "1.0 /. " ^ x
  | Floor -> "Float.floor " ^ x
  | Neg | Not | Abs -> invalid_arg "funop_txt"

let bname : Expr.binop -> string = function
  | Add -> "Add"
  | Sub -> "Sub"
  | Mul -> "Mul"
  | Div -> "Div"
  | Mod -> "Mod"
  | Min -> "Min"
  | Max -> "Max"
  | Eq -> "Eq"
  | Ne -> "Ne"
  | Lt -> "Lt"
  | Le -> "Le"
  | Gt -> "Gt"
  | Ge -> "Ge"
  | And -> "And"
  | Or -> "Or"

let emit_source (k : Kernel.t) : string =
  let sp = Printf.sprintf in
  (* names ever targeted by an Assign: same name-based scan as the closure
     compiler, so the two engines pick identical boxed/unboxed paths *)
  let assigned = Hashtbl.create 16 in
  let rec scan = function
    | Stmt.Assign { var; _ } -> Hashtbl.replace assigned var ()
    | Stmt.For { body; _ } -> List.iter scan body
    | Stmt.If { then_; else_; _ } ->
      List.iter scan then_;
      List.iter scan else_
    | _ -> ()
  in
  List.iter scan k.Kernel.body;
  let never_assigned v = not (Hashtbl.mem assigned v) in
  let ctr = ref 0 in
  let fresh pfx nm =
    incr ctr;
    sp "%s%d_%s" pfx !ctr (sanitize nm)
  in
  let tmp () =
    incr ctr;
    sp "t%d" !ctr
  in
  (* static analyses, mirroring [Compile]'s [static_int]/[static_float] *)
  let rec s_int env (e : Expr.t) =
    match e with
    | Int _ -> true
    | Float _ | Load _ -> false
    | Var x -> ( match List.assoc_opt x env.sv with Some (_, KInt) -> true | _ -> false)
    | Binop ((Eq | Ne | Lt | Le | Gt | Ge | And | Or), _, _) -> true
    | Binop (_, l, r) -> s_int env l && s_int env r
    | Unop (Not, _) -> true
    | Unop ((Neg | Abs), x) -> s_int env x
    | Unop (_, _) -> false
    | Select (_, t, f) -> s_int env t && s_int env f
    | Cast (d, _) -> not (Dtype.is_float d)
  in
  let rec s_flt env (e : Expr.t) =
    match e with
    | Float _ -> true
    | Int _ | Load _ -> false
    | Var x -> ( match List.assoc_opt x env.sv with Some (_, KFloat) -> true | _ -> false)
    | Binop ((Eq | Ne | Lt | Le | Gt | Ge | And | Or), _, _) -> false
    | Binop (_, l, r) -> s_flt env l || s_flt env r
    | Unop ((Exp | Log | Sqrt | Rsqrt | Tanh | Erf | Recip | Floor), _) -> true
    | Unop ((Neg | Abs), x) -> s_flt env x
    | Unop (Not, _) -> false
    | Select (_, t, f) -> s_flt env t && s_flt env f
    | Cast (d, _) -> Dtype.is_float d
  in
  let isf_txt = function Bstat true -> "true" | Bstat false -> "false" | Bdyn id -> id in
  (* expression generators, one per compilation mode of the closure engine
     ([comp] / [comp_iint] / [comp_int] / [comp_ffloat]), matching its match
     arms case for case. Binop operands are always let-sequenced left-first,
     fixing the evaluation order the closures get from their [let a = cl fr]
     bindings. *)
  let rec gen_v env (e : Expr.t) : string =
    match e with
    | Int n -> sp "(I %s)" (ilit n)
    | Float f -> sp "(F %s)" (flit f)
    | Var x -> (
      match List.assoc_opt x env.sv with
      | Some (id, KInt) -> sp "(I %s)" id
      | Some (id, KFloat) -> sp "(F %s)" id
      | Some (id, KVal) -> id
      | Some (id, KRef) -> sp "(!%s)" id
      | None -> sp "(err %S %S)" "unbound variable %s" x)
    | Load (b, i) -> (
      let ix = gen_int env i in
      match List.assoc_opt b env.bv with
      | Some (bid, isf) ->
        let t = tmp () and vv = tmp () in
        sp "(let %s : int = %s in let %s : float = buf_get %s %S %s in if %s then F %s else I (int_of_float %s))"
          t ix vv bid b t (isf_txt isf) vv vv
      | None -> sp "(let %s : int = %s in err %S %S)" (tmp ()) ix "unbound buffer %s" b)
    | Binop _ when s_int env e -> sp "(I %s)" (gen_iint env e)
    | Binop (op, l, r) ->
      let a = tmp () and b = tmp () in
      sp "(let %s : v = %s in let %s : v = %s in v_bin %s %s %s)" a (gen_v env l) b
        (gen_v env r) (bname op) a b
    | Unop (((Exp | Log | Sqrt | Rsqrt | Tanh | Erf | Recip | Floor) as op), x) ->
      sp "(F (%s))" (funop_txt op (gen_f env x))
    | Unop (Neg, x) ->
      let t = tmp () in
      sp "(match %s with I %s -> I (- %s) | F %s -> F (-. %s))" (gen_v env x) t t t t
    | Unop (Not, x) -> sp "(of_bool (not (vb %s)))" (gen_v env x)
    | Unop (Abs, x) ->
      let t = tmp () in
      sp "(match %s with I %s -> I (abs %s) | F %s -> F (Float.abs %s))" (gen_v env x) t t t t
    | Select (c, t, f) ->
      sp "(if vb %s then %s else %s)" (gen_v env c) (gen_v env t) (gen_v env f)
    | Cast (d, x) ->
      if Dtype.is_float d then sp "(F %s)" (gen_f env x) else sp "(I (vi %s))" (gen_v env x)
  and gen_iint env (e : Expr.t) : string =
    match e with
    | Int n -> ilit n
    | Var x -> (
      match List.assoc_opt x env.sv with
      | Some (id, KInt) -> id
      | Some (id, KFloat) -> sp "(int_of_float %s)" id
      | Some (id, KVal) -> sp "(vi %s)" id
      | Some (id, KRef) -> sp "(vi !%s)" id
      | None -> sp "(err %S %S)" "unbound variable %s" x)
    | Binop (op, l, r) when s_int env l && s_int env r ->
      let x = tmp () and y = tmp () in
      let body =
        match op with
        | Add -> sp "%s + %s" x y
        | Sub -> sp "%s - %s" x y
        | Mul -> sp "%s * %s" x y
        | Div -> sp "if %s = 0 then err %S else %s / %s" y "integer division by zero" x y
        | Mod -> sp "if %s = 0 then err %S else %s mod %s" y "integer modulo by zero" x y
        | Min -> sp "if %s <= %s then %s else %s" x y x y
        | Max -> sp "if %s >= %s then %s else %s" x y x y
        | Eq -> sp "if %s = %s then 1 else 0" x y
        | Ne -> sp "if %s <> %s then 1 else 0" x y
        | Lt -> sp "if %s < %s then 1 else 0" x y
        | Le -> sp "if %s <= %s then 1 else 0" x y
        | Gt -> sp "if %s > %s then 1 else 0" x y
        | Ge -> sp "if %s >= %s then 1 else 0" x y
        | And -> sp "if %s <> 0 && %s <> 0 then 1 else 0" x y
        | Or -> sp "if %s <> 0 || %s <> 0 then 1 else 0" x y
      in
      sp "(let %s : int = %s in let %s : int = %s in %s)" x (gen_iint env l) y (gen_iint env r)
        body
    | Binop (op, l, r) ->
      let a = tmp () and b = tmp () in
      sp "(let %s : v = %s in let %s : v = %s in vi (v_bin %s %s %s))" a (gen_v env l) b
        (gen_v env r) (bname op) a b
    | Unop (Neg, x) when s_int env x -> sp "(- %s)" (gen_iint env x)
    | Unop (Abs, x) when s_int env x -> sp "(abs %s)" (gen_iint env x)
    | Unop (Not, x) -> sp "(if vb %s then 0 else 1)" (gen_v env x)
    | Select (c, t, f) when s_int env t && s_int env f ->
      sp "(if vb %s then %s else %s)" (gen_v env c) (gen_iint env t) (gen_iint env f)
    | _ -> sp "(vi %s)" (gen_v env e)
  and gen_int env (e : Expr.t) : string =
    match e with
    | Int n -> ilit n
    | _ when s_int env e -> gen_iint env e
    | _ -> sp "(vi %s)" (gen_v env e)
  and gen_f env (e : Expr.t) : string =
    match e with
    | Int n -> flit (float_of_int n)
    | Float f -> flit f
    | Var x -> (
      match List.assoc_opt x env.sv with
      | Some (id, KFloat) -> id
      | Some (id, KInt) -> sp "(float_of_int %s)" id
      | Some (id, KVal) -> sp "(vf %s)" id
      | Some (id, KRef) -> sp "(vf !%s)" id
      | None -> sp "(err %S %S)" "unbound variable %s" x)
    | Load (b, i) -> (
      let ix = gen_int env i in
      match List.assoc_opt b env.bv with
      | Some (bid, isf) ->
        let t = tmp () and vv = tmp () in
        sp "(let %s : int = %s in let %s : float = buf_get %s %S %s in if %s then %s else float_of_int (int_of_float %s))"
          t ix vv bid b t (isf_txt isf) vv vv
      | None -> sp "(let %s : int = %s in err %S %S)" (tmp ()) ix "unbound buffer %s" b)
    | _ when s_int env e -> sp "(float_of_int %s)" (gen_iint env e)
    | Binop (((Add | Sub | Mul | Div | Mod | Min | Max) as op), l, r)
      when s_flt env l || s_flt env r ->
      let x = tmp () and y = tmp () in
      let body =
        match op with
        | Add -> sp "%s +. %s" x y
        | Sub -> sp "%s -. %s" x y
        | Mul -> sp "%s *. %s" x y
        | Div -> sp "%s /. %s" x y
        | Mod -> sp "Float.rem %s %s" x y
        | Min -> sp "Float.min %s %s" x y
        | Max -> sp "Float.max %s %s" x y
        | _ -> assert false
      in
      sp "(let %s : float = %s in let %s : float = %s in %s)" x (gen_f env l) y (gen_f env r)
        body
    | Unop (((Exp | Log | Sqrt | Rsqrt | Tanh | Erf | Recip | Floor) as op), x) ->
      sp "(%s)" (funop_txt op (gen_f env x))
    | Unop (Neg, x) when s_flt env x -> sp "(-. %s)" (gen_f env x)
    | Unop (Abs, x) when s_flt env x -> sp "(Float.abs %s)" (gen_f env x)
    | Select (c, t, f) when s_flt env t && s_flt env f ->
      sp "(if vb %s then %s else %s)" (gen_v env c) (gen_f env t) (gen_f env f)
    | _ -> sp "(vf %s)" (gen_v env e)
  in
  let barr env b =
    match List.assoc_opt b env.bv with
    | Some (id, _) -> id
    | None -> sp "(err %S %S : float array)" "unbound buffer %s" b
  in
  (* statement generation: every statement starts with [stp ()] (step count +
     fuel check), exactly like the closure engine's per-statement wrapper *)
  let rec gen_block env (stmts : Stmt.t list) : string =
    match stmts with [] -> "()" | st :: rest -> gen_stmt env st rest
  and gen_stmt env (st : Stmt.t) rest : string =
    let cont env = gen_block env rest in
    match st with
    | Stmt.Annot _ -> "stp ();\n" ^ cont env
    | Stmt.Let { var; value } ->
      if s_int env value && never_assigned var then
        let id = fresh "x" var in
        sp "stp (); let %s : int = %s in\n%s" id (gen_iint env value)
          (cont { env with sv = (var, (id, KInt)) :: env.sv })
      else if s_flt env value && never_assigned var then
        let id = fresh "x" var in
        sp "stp (); let %s : float = %s in\n%s" id (gen_f env value)
          (cont { env with sv = (var, (id, KFloat)) :: env.sv })
      else if never_assigned var then
        let id = fresh "x" var in
        sp "stp (); let %s : v = %s in\n%s" id (gen_v env value)
          (cont { env with sv = (var, (id, KVal)) :: env.sv })
      else
        let id = fresh "x" var in
        sp "stp (); let %s : v ref = ref %s in\n%s" id (gen_v env value)
          (cont { env with sv = (var, (id, KRef)) :: env.sv })
    | Stmt.Assign { var; value } -> (
      match List.assoc_opt var env.sv with
      | Some (id, KRef) -> sp "stp (); %s := %s;\n%s" id (gen_v env value) (cont env)
      | Some _ | None ->
        (* Some _ is unreachable (immutable kinds require [never_assigned]);
           keep the closure engine's unbound-assignment message for both *)
        sp "stp (); (err %S %S : unit);\n%s" "assignment to unbound variable %s" var (cont env))
    | Stmt.Store { buf; index; value } -> (
      match List.assoc_opt buf env.bv with
      | Some (bid, isf) ->
        let i = tmp () and x = tmp () in
        let trunc =
          match isf with
          | Bstat true -> ""
          | Bstat false -> sp "let %s : float = float_of_int (int_of_float %s) in " x x
          | Bdyn f ->
            sp "let %s : float = if %s then %s else float_of_int (int_of_float %s) in " x f x x
        in
        sp
          "stp (); (let %s : int = %s in let %s : float = %s in %sbuf_set %s %S %s %s; st_stores := !st_stores + 1; (if tally_on then tally %S 1); (if trace_on then trace %S %s %s); if !st_stores >= store_limit then halt0 ());\n%s"
          i (gen_int env index) x (gen_f env value) trunc bid buf i x buf buf i x (cont env)
      | None -> sp "stp (); (err %S %S : unit);\n%s" "unbound buffer %s" buf (cont env))
    | Stmt.Alloc { buf; dtype; size; _ } ->
      let bid = fresh "b" buf in
      sp "stp (); let %s : float array = Array.make %s 0.0 in\n%s" bid (ilit size)
        (cont { env with bv = (buf, (bid, Bstat (Dtype.is_float dtype))) :: env.bv })
    | Stmt.If { cond; then_; else_ } ->
      sp "stp (); (if vb %s then (\n%s) else (\n%s));\n%s" (gen_v env cond)
        (gen_block env then_) (gen_block env else_) (cont env)
    | Stmt.Memcpy { dst; src; len } ->
      let d = tmp () and s = tmp () and doff = tmp () and soff = tmp () in
      let n = tmp () and kk = tmp () in
      sp
        "stp (); (let %s : float array = %s in let %s : float array = %s in let %s : int = %s in let %s : int = %s in let %s : int = %s in if %s < 0 then err %S %s; for %s = 0 to %s - 1 do buf_set %s %S (%s + %s) (buf_get %s %S (%s + %s)) done; st_mem := !st_mem + %s; (if tally_on then tally %S %s));\n%s"
        d (barr env dst.buf) s (barr env src.buf) doff (gen_int env dst.offset) soff
        (gen_int env src.offset) n (gen_int env len) n "memcpy: negative length %d" n kk n d
        dst.buf doff kk s src.buf soff kk n dst.buf n (cont env)
    | Stmt.Intrinsic i ->
      let name = Intrin.op_name i.op in
      let before = tmp () and d = tmp () and doff = tmp () in
      let srcs = List.map (fun (r : Intrin.buf_ref) -> (r, tmp (), tmp ())) i.srcs in
      let params = List.map (fun p -> (p, tmp ())) i.params in
      let b = Buffer.create 256 in
      Buffer.add_string b (sp "stp (); (let %s : int = !st_intr in " before);
      Buffer.add_string b (sp "let %s : float array = %s in " d (barr env i.dst.buf));
      Buffer.add_string b (sp "let %s : int = %s in " doff (gen_int env i.dst.offset));
      List.iter
        (fun ((r : Intrin.buf_ref), t, o) ->
          Buffer.add_string b (sp "let %s : float array = %s in " t (barr env r.buf));
          Buffer.add_string b (sp "let %s : int = %s in " o (gen_int env r.offset)))
        srcs;
      List.iter
        (fun (p, id) -> Buffer.add_string b (sp "let %s : int = %s in " id (gen_int env p)))
        params;
      let srcs_arr =
        match srcs with
        | [] -> "[||]"
        | _ ->
          "[| "
          ^ String.concat "; "
              (List.map (fun ((r : Intrin.buf_ref), t, o) -> sp "(%s, %S, %s)" t r.buf o) srcs)
          ^ " |]"
      in
      let params_arr =
        match params with
        | [] -> "[||]"
        | _ -> "[| " ^ String.concat "; " (List.map snd params) ^ " |]"
      in
      let fparam =
        match i.params with
        | _ :: e :: _ -> sp "(fun () -> %s)" (gen_f env e)
        | _ -> sp "(fun () -> err %S %S)" "%s: no scalar" name
      in
      Buffer.add_string b
        (sp
           "intrinsic_exec st_intr ~name:%S ~op:%s ~dst_t:%s ~dname:%S ~dst_off:%s ~srcs:%s ~params:%s ~fparam:%s; "
           name (iop_ctor i.op) d i.dst.buf doff srcs_arr params_arr fparam);
      Buffer.add_string b (sp "(if tally_on then tally %S (!st_intr - %s)));\n" i.dst.buf before);
      Buffer.contents b ^ cont env
    | Stmt.Sync ->
      sp
        "stp (); st_bar := !st_bar + 1; (try Effect.perform Barrier with Effect.Unhandled _ -> ());\n%s"
        (cont env)
    | Stmt.For { var; lo; extent; kind = Stmt.Parallel ax; body } when Compile.is_thread_axis ax
      ->
      (* maximal immediately-nested thread-parallel chain: one fiber group so
         a barrier synchronizes the whole thread block, like the closure
         engine's chained spawn *)
      let rec chain acc body =
        match body with
        | [ Stmt.For { var; lo; extent; kind = Stmt.Parallel ax; body = inner } ]
          when Compile.is_thread_axis ax ->
          chain ((var, lo, extent) :: acc) inner
        | _ -> (List.rev acc, body)
      in
      let loops, innermost = chain [ (var, lo, extent) ] body in
      let rec emit_chain env = function
        | [] ->
          (* fiber body: every mutable scalar in scope is privatized at fiber
             entry, the analogue of the closure engine's per-fiber frame copy
             (no mutation can happen between spawn and first run, so the
             snapshot is taken at the same observable point) *)
          let rebinds =
            List.filter_map (fun (_, (id, kd)) -> if kd = KRef then Some id else None) env.sv
            |> List.sort_uniq compare
            |> List.map (fun id -> sp "let %s = ref !%s in " id id)
            |> String.concat ""
          in
          sp "[ (fun () -> %s(\n%s)) ]" rebinds (gen_block env innermost)
        | (v, lo_e, ext_e) :: rest ->
          let lo_i = tmp () and ext_i = tmp () and q = tmp () in
          let bind, env' =
            if never_assigned v then
              let id = fresh "x" v in
              ( sp "let %s : int = %s + %s in " id lo_i q,
                { env with sv = (v, (id, KInt)) :: env.sv } )
            else
              let id = fresh "x" v in
              ( sp "let %s : v ref = ref (I (%s + %s)) in " id lo_i q,
                { env with sv = (v, (id, KRef)) :: env.sv } )
          in
          sp
            "let %s : int = %s in let %s : int = %s in if %s < 0 then err %S %S; List.concat (List.init %s (fun %s -> %s\n%s))"
            lo_i (gen_int env lo_e) ext_i (gen_int env ext_e) ext_i "negative loop extent in %s"
            v ext_i q bind (emit_chain env' rest)
      in
      sp "stp (); run_fiber_group (\n%s);\n%s" (emit_chain env loops) (cont env)
    | Stmt.For { var; lo; extent; body; _ } ->
      let lo_i = tmp () and ext_i = tmp () in
      if never_assigned var then
        let id = fresh "x" var in
        sp
          "stp (); (let %s : int = %s in let %s : int = %s in if %s < 0 then err %S %S; for %s = %s to %s + %s - 1 do\n%s done);\n%s"
          lo_i (gen_int env lo) ext_i (gen_int env extent) ext_i "negative loop extent in %s"
          var id lo_i lo_i ext_i
          (gen_block { env with sv = (var, (id, KInt)) :: env.sv } body)
          (cont env)
      else
        let q = tmp () and id = fresh "x" var in
        sp
          "stp (); (let %s : int = %s in let %s : int = %s in if %s < 0 then err %S %S; for %s = %s to %s + %s - 1 do let %s : v ref = ref (I %s) in\n%s done);\n%s"
          lo_i (gen_int env lo) ext_i (gen_int env extent) ext_i "negative loop extent in %s"
          var q lo_i lo_i ext_i id q
          (gen_block { env with sv = (var, (id, KRef)) :: env.sv } body)
          (cont env)
  in
  (* parameter bindings, in declaration order like [Compile.bind_args]; the
     host fills s_int/s_flt/s_isf (resp. bufs/buf_isf) in the same order *)
  let param_lets = Buffer.create 128 in
  let env0 = ref { sv = []; bv = [] } in
  let bi = ref 0 and si = ref 0 in
  List.iter
    (fun (p : Kernel.param) ->
      if p.is_buffer then begin
        let id = fresh "b" p.name in
        Buffer.add_string param_lets
          (sp "        let %s : float array = a.bufs.(%d) in\n        let %sf : bool = a.buf_isf.(%d) in\n"
             id !bi id !bi);
        env0 := { !env0 with bv = (p.name, (id, Bdyn (id ^ "f"))) :: !env0.bv };
        incr bi
      end
      else begin
        let id = fresh "x" p.name in
        let init =
          sp "(if a.s_isf.(%d) then F a.s_flt.(%d) else I a.s_int.(%d))" !si !si !si
        in
        if never_assigned p.name then begin
          Buffer.add_string param_lets (sp "        let %s : v = %s in\n" id init);
          env0 := { !env0 with sv = (p.name, (id, KVal)) :: !env0.sv }
        end
        else begin
          Buffer.add_string param_lets (sp "        let %s : v ref = ref %s in\n" id init);
          env0 := { !env0 with sv = (p.name, (id, KRef)) :: !env0.sv }
        end;
        incr si
      end)
    k.Kernel.params;
  let body = gen_block !env0 k.Kernel.body in
  String.concat ""
    [ sp "(* generated by the xpiler native backend (%s)\n   kernel: %s *)\n\n" codegen_version
        k.Kernel.name;
      prelude;
      "let run (a : abi) =\n";
      "  let st_steps = ref 0 in\n";
      "  let st_stores = ref 0 in\n";
      "  let st_intr = ref 0 in\n";
      "  let st_mem = ref 0 in\n";
      "  let st_bar = ref 0 in\n";
      "  let fuel = a.fuel in\n";
      "  let store_limit = a.store_limit in\n";
      "  let halt0 = a.halt0 in\n";
      "  let tally_on = a.tally_on in\n";
      "  let tally = a.tally in\n";
      "  let trace_on = a.trace_on in\n";
      "  let trace = a.trace in\n";
      "  let stp () =\n";
      "    let s = !st_steps + 1 in\n";
      "    st_steps := s;\n";
      "    if s > fuel then err \"fuel exhausted (non-terminating program?)\"\n";
      "  in\n";
      "  Fun.protect\n";
      "    ~finally:(fun () ->\n";
      "      a.counters.(0) <- !st_steps;\n";
      "      a.counters.(1) <- !st_stores;\n";
      "      a.counters.(2) <- !st_intr;\n";
      "      a.counters.(3) <- !st_mem;\n";
      "      a.counters.(4) <- !st_bar)\n";
      "    (fun () ->\n";
      "      try\n";
      Buffer.contents param_lets;
      "        (\n";
      body;
      "        )\n";
      "      with Fail m -> a.fail0 m; assert false)\n";
      "\n";
      "let () = Callback.register \"xpiler.native.run\" (Obj.repr run)\n"
    ]

(* ---- compile, load, cache ----------------------------------------------- *)

(* serializes artifact builds and Dynlink loads, not memo lookups *)
let lock = Mutex.create ()

module Memo = Xpiler_util.Cache.Make (String)

let memo : (abi -> unit) option Memo.t = Memo.create ~capacity:1024 ()
let warned = ref false

let reset_memo_for_testing () =
  Memo.clear memo;
  Mutex.protect lock (fun () -> warned := false)

let log_fallback_once what msg =
  if not !warned then begin
    warned := true;
    Printf.eprintf "xpiler: native backend falling back to the closure engine (%s): %s\n%!" what
      msg
  end

let read_capped path cap =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let n = min cap (in_channel_length ic) in
        really_input_string ic n)
  with _ -> ""

let rm_rf_flat dir =
  if Sys.file_exists dir then begin
    (try Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ()) (Sys.readdir dir)
     with Sys_error _ -> ());
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

let timed hist f =
  let t0 = Unix.gettimeofday () in
  Fun.protect ~finally:(fun () -> Metrics.observe hist (Unix.gettimeofday () -. t0)) f

(* mtime is the LRU clock: refresh on every disk hit *)
let touch path = try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ()

let evict_if_needed dir =
  let limit = cache_limit_bytes () in
  let entries =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | files ->
      Array.to_list files
      |> List.filter (fun f -> Filename.check_suffix f ".cmxs")
      |> List.filter_map (fun f ->
             let p = Filename.concat dir f in
             match Unix.stat p with
             | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ } -> Some (p, st_mtime, st_size)
             | _ -> None
             | exception Unix.Unix_error _ -> None)
  in
  let total = List.fold_left (fun a (_, _, s) -> a + s) 0 entries in
  if total > limit then begin
    let by_age = List.sort (fun (_, m1, _) (_, m2, _) -> compare m1 m2) entries in
    let rec drop total = function
      | (p, _, s) :: rest when total > limit ->
        (try Sys.remove p with Sys_error _ -> ());
        (try Sys.remove (Filename.chop_suffix p ".cmxs" ^ ".ml") with Sys_error _ -> ());
        Metrics.inc m_evictions;
        drop (total - s) rest
      | _ -> ()
    in
    drop total by_age
  end

(* Dynlink + entry retrieval. [loadfile_private] (not [loadfile]) so the same
   unit name can be loaded again within one process — required for the
   cold-vs-warm cache tests, and harmless otherwise since each artifact's
   unit name embeds its content key. Caller holds [lock] (the named-value
   slot is a process-wide rendezvous). *)
let load_entry path : ((abi -> unit), string) result =
  timed h_dynlink @@ fun () ->
  Prof.span "native.dynlink" @@ fun () ->
  try
    Dynlink.loadfile_private path;
    match named_value "xpiler.native.run" with
    | Some o -> Ok (Obj.magic o : abi -> unit)
    | None -> Error "plugin registered no entry point"
  with
  | Dynlink.Error e -> Error (Dynlink.error_message e)
  | exn -> Error (Printexc.to_string exn)

let compile_artifact k key dir path : (unit, string) result =
  let src = timed h_codegen (fun () -> Prof.span "native.codegen" (fun () -> emit_source k)) in
  let unit_name = "xpiler_native_" ^ key in
  let bdir = Filename.concat dir (Printf.sprintf "build.%d.%s" (Unix.getpid ()) key) in
  mkdir_p bdir;
  let ml = Filename.concat bdir (unit_name ^ ".ml") in
  let oc = open_out_bin ml in
  output_string oc src;
  close_out oc;
  let out = Filename.concat bdir (unit_name ^ ".cmxs") in
  let logf = Filename.concat bdir "log" in
  let cmd =
    Printf.sprintf "ocamlfind ocamlopt -shared -w -a -o %s %s > %s 2>&1" (Filename.quote out)
      (Filename.quote ml) (Filename.quote logf)
  in
  let rc = timed h_compile (fun () -> Prof.span "native.compile" (fun () -> Sys.command cmd)) in
  if rc <> 0 then begin
    let log = read_capped logf 2000 in
    rm_rf_flat bdir;
    Error (Printf.sprintf "ocamlopt exited with %d: %s" rc (String.trim log))
  end
  else begin
    (* keep the source next to the artifact for debuggability; rename is
       atomic within the cache filesystem so concurrent processes never see
       a truncated .cmxs *)
    (try Sys.rename ml (Filename.concat dir (key ^ ".ml")) with Sys_error _ -> ());
    match Sys.rename out path with
    | () ->
      rm_rf_flat bdir;
      Ok ()
    | exception Sys_error e ->
      rm_rf_flat bdir;
      Error ("installing artifact failed: " ^ e)
  end

let get_entry (k : Kernel.t) : (abi -> unit) option =
  if not (available ()) then begin
    log_fallback_once k.Kernel.name "ocamlfind ocamlopt unavailable or bytecode host";
    None
  end
  else
    let key = kernel_key k in
    let r =
      Memo.find_or_add memo key @@ fun () ->
      Mutex.protect lock @@ fun () ->
      let dir = cache_dir () in
      mkdir_p dir;
      let path = Filename.concat dir (key ^ ".cmxs") in
      let from_disk =
        if Sys.file_exists path then begin
          match load_entry path with
          | Ok fn ->
            touch path;
            Metrics.inc m_disk_hit;
            Some fn
          | Error _ ->
            (* corrupted or stale artifact: drop it and recompile (a miss) *)
            Metrics.inc m_corrupt;
            (try Sys.remove path with Sys_error _ -> ());
            None
        end
        else None
      in
      match from_disk with
      | Some fn -> Some fn
      | None -> (
        Metrics.inc m_miss;
        match compile_artifact k key dir path with
        | Error msg ->
          log_fallback_once k.Kernel.name msg;
          None
        | Ok () -> (
          match load_entry path with
          | Ok fn ->
            evict_if_needed dir;
            Some fn
          | Error msg ->
            log_fallback_once k.Kernel.name msg;
            None))
    in
    if r.hit then Metrics.inc m_memo_hit;
    r.value

(* ---- cache maintenance (the [xpiler cache] subcommand) ------------------ *)

type cache_info = { dir : string; files : int; bytes : int; limit_bytes : int }

let cache_info () =
  let dir = cache_dir () in
  let files, bytes =
    match Sys.readdir dir with
    | exception Sys_error _ -> (0, 0)
    | fs ->
      Array.fold_left
        (fun (n, b) f ->
          if Filename.check_suffix f ".cmxs" || Filename.check_suffix f ".ml" then begin
            match Unix.stat (Filename.concat dir f) with
            | { Unix.st_kind = Unix.S_REG; st_size; _ } -> (n + 1, b + st_size)
            | _ -> (n, b)
            | exception Unix.Unix_error _ -> (n, b)
          end
          else (n, b))
        (0, 0) fs
  in
  { dir; files; bytes; limit_bytes = cache_limit_bytes () }

let cache_clear () =
  Mutex.protect lock @@ fun () ->
  let dir = cache_dir () in
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | fs ->
    Array.fold_left
      (fun n f ->
        let p = Filename.concat dir f in
        if Filename.check_suffix f ".cmxs" || Filename.check_suffix f ".ml" then begin
          match Sys.remove p with () -> n + 1 | exception Sys_error _ -> n
        end
        else if String.length f >= 6 && String.sub f 0 6 = "build." then begin
          rm_rf_flat p;
          n
        end
        else n)
      0 fs

(* ---- execution ---------------------------------------------------------- *)

let run ?(fuel = 200_000_000) ?trace (k : Kernel.t) (args : (string * Compile.arg) list) :
    Compile.stats option =
  match get_entry k with
    | None ->
      Metrics.inc m_fallbacks;
      None
    | Some entry ->
      (* bind arguments in parameter order with [Compile.bind_args]'s exact
         error messages, before any profiling hook engages (same as the
         closure engine, whose bind happens before its Fun.protect) *)
      let bufs = ref [] and b_isf = ref [] in
      let s_int = ref [] and s_flt = ref [] and s_isf = ref [] in
      List.iter
        (fun (p : Kernel.param) ->
          match List.assoc_opt p.name args with
          | None -> Compile.err "missing argument for parameter %s" p.name
          | Some (Compile.Buf t) ->
            if p.is_buffer then begin
              bufs := t.Tensor.data :: !bufs;
              b_isf := Dtype.is_float t.Tensor.dtype :: !b_isf
            end
            else Compile.err "parameter %s is scalar but got a buffer" p.name
          | Some (Compile.Scalar_int n) ->
            if p.is_buffer then Compile.err "parameter %s is a buffer but got a scalar" p.name
            else begin
              s_int := n :: !s_int;
              s_flt := 0.0 :: !s_flt;
              s_isf := false :: !s_isf
            end
          | Some (Compile.Scalar_float f) ->
            if p.is_buffer then Compile.err "parameter %s is a buffer but got a scalar" p.name
            else begin
              s_int := 0 :: !s_int;
              s_flt := f :: !s_flt;
              s_isf := true :: !s_isf
            end)
        k.Kernel.params;
      let stats = Compile.fresh_stats () in
      let traffic = if Trace.enabled () then Some (Hashtbl.create 8) else None in
      let counters = Array.make 5 0 in
      let abi =
        { bufs = Array.of_list (List.rev !bufs);
          buf_isf = Array.of_list (List.rev !b_isf);
          s_int = Array.of_list (List.rev !s_int);
          s_flt = Array.of_list (List.rev !s_flt);
          s_isf = Array.of_list (List.rev !s_isf);
          fuel;
          store_limit = max_int;
          counters;
          fail0 = (fun m -> raise (Compile.Runtime_error m));
          halt0 = (fun () -> raise Compile.Halt);
          trace_on = trace <> None;
          trace = (match trace with Some f -> f | None -> fun _ _ _ -> ());
          tally_on = traffic <> None;
          tally =
            (match traffic with
            | Some tbl ->
              fun buf n ->
                Hashtbl.replace tbl buf (n + Option.value ~default:0 (Hashtbl.find_opt tbl buf))
            | None -> fun _ _ -> ())
        }
      in
      Fun.protect
        ~finally:(fun () ->
          stats.steps <- counters.(0);
          stats.stores <- counters.(1);
          stats.intrinsic_elems <- counters.(2);
          stats.memcpy_elems <- counters.(3);
          stats.barriers <- counters.(4);
          Compile.profile stats traffic)
        (fun () -> try entry abi with Compile.Halt -> ());
      Some stats
