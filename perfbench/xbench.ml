(* One pass of the translation benchmark, in a fresh process.

   Usage:
     xbench.exe --workload NAME --seed N [--trace] [--verify M [--corrupt]] < CHECKED
     xbench.exe --workload NAME --seed N --setup-only

   The process is one closed-loop client: it translates the workload's cells
   through [Xpiler.transcompile] in a fixed order (op-major, then direction),
   each cell starting when the previous one has returned, and prints one JSON
   object on its last stdout line. perfbench/run.py turns these objects into
   the benchmark's metrics; perfbench/WORKLOADS.md says why each workload
   exists.

   [--trace] makes this the traced pass: Detail tracing and the profiler are
   on, and after the loop the pass times the benchmark's own probe calls into
   each layer's public functions on every cell's kernels, to attribute wall
   time to layers. [--verify M] runs every accepted output and the operator's
   serial kernel on the tree-walking reference engine after the loop, on
   inputs drawn from seed M, and compares all output buffers; outputs listed
   on stdin as "op digest" lines were already checked on the same inputs by
   an earlier pass and are not run again. [--corrupt] replaces the first
   accepted output by an empty kernel before that check (a self-test hook).
   [--setup-only] exits where the first cell would start. *)

open Xpiler_ir
open Xpiler_machine
open Xpiler_ops
open Xpiler_core
module Obs = Xpiler_obs
module Json = Xpiler_obs.Json
module Vclock = Xpiler_util.Vclock

let now = Unix.gettimeofday

(* ---- command line -------------------------------------------------------- *)

let workload_name = ref ""
let seed = ref (-1)
let traced = ref false
let check_seed = ref (-1)
let corrupt = ref false
let setup_only = ref false

let () =
  Arg.parse
    [ ("--workload", Arg.Set_string workload_name, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (>= 0)");
      ("--trace", Arg.Set traced, " traced pass with layer probes");
      ("--verify", Arg.Set_int check_seed, "M independent output check on inputs from seed M");
      ("--corrupt", Arg.Set corrupt, " corrupt the first accepted output (self-test)");
      ("--setup-only", Arg.Set setup_only, " exit where the first cell would start") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "xbench.exe --workload NAME --seed N [--trace] [--verify M [--corrupt]] < CHECKED"

(* ---- workloads ----------------------------------------------------------- *)

type workload = {
  base : Config.t;
  fault_scale : float;
  ops : Opdef.t list;
  dirs : (Platform.id * Platform.id) list;
}

let platforms = [ Platform.Cuda; Platform.Bang; Platform.Hip; Platform.Vnni ]

let all_directions =
  List.concat_map
    (fun s -> List.filter_map (fun d -> if s = d then None else Some (s, d)) platforms)
    platforms

(* the three ops whose cost stays dominated by unit tests even with tuning on *)
let unit_test_heavy = [ "self_attention"; "conv2d_nhwc"; "conv2d_nchw" ]

let workload_of_name = function
  | "untuned-matrix" ->
    Some { base = Config.default; fault_scale = 1.0; ops = Registry.all; dirs = all_directions }
  | "tuned-matrix" ->
    Some
      { base = Config.tuned;
        fault_scale = 1.0;
        ops =
          List.filter
            (fun (o : Opdef.t) -> not (List.mem o.Opdef.name unit_test_heavy))
            Registry.all;
        dirs = all_directions
      }
  | "faulty-matrix" ->
    Some { base = Config.default; fault_scale = 20.0; ops = Registry.all; dirs = all_directions }
  (* a seconds-long cut of the same machinery for the benchmark's self-tests *)
  | "smoke" ->
    Some
      { base = Config.tuned;
        fault_scale = 1.0;
        ops = [ Registry.find_exn "relu"; Registry.find_exn "softmax" ];
        dirs = [ (Platform.Cuda, Platform.Bang); (Platform.Vnni, Platform.Hip) ]
      }
  | _ -> None

let workload =
  match workload_of_name !workload_name with
  | Some w when !seed >= 0 -> w
  | _ ->
    prerr_endline
      "xbench: need --workload untuned-matrix|tuned-matrix|faulty-matrix|smoke and --seed N >= 0";
    exit 2

(* Every field that changes which program is measured is set here, whatever
   the environment says: one domain, closure engine, no knowledge store. *)
let config =
  let b = workload.base in
  { b with
    Config.seed = !seed;
    mcts = { b.Config.mcts with Xpiler_tuning.Mcts.seed = !seed };
    fault_scale = workload.fault_scale;
    jobs = 1;
    trace_level = (if !traced then Obs.Tracer.Detail else Obs.Tracer.Off);
    trace_sink = None;
    profile = !traced;
    native_backend = false;
    store_dir = None
  }

let () = Native.set_enabled false

type cell = {
  op : Opdef.t;
  shape : Opdef.shape;
  src : Platform.id;
  dst : Platform.id;
  case_id : string;
}

let cells =
  List.concat_map
    (fun (op : Opdef.t) ->
      let shape = List.hd op.Opdef.shapes in
      List.map
        (fun (src, dst) ->
          let case_id =
            Printf.sprintf "%s@%s:%s->%s" op.Opdef.name
              (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) shape))
              (Platform.id_to_string src) (Platform.id_to_string dst)
          in
          { op; shape; src; dst; case_id })
        workload.dirs)
    workload.ops

let first_cell_at = now ()

let () =
  if !setup_only then begin
    print_endline (Json.to_string (Json.Obj [ ("first_cell_at", Json.Float first_cell_at) ]));
    exit 0
  end

(* ---- process-global meters (deltas over the loop) ------------------------ *)

let sample_key (s : Obs.Metrics.sample) =
  match s.labels with
  | [] -> s.name
  | l -> s.name ^ "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) l) ^ "}"

let meters () =
  List.filter_map
    (fun (s : Obs.Metrics.sample) ->
      match s.value with Obs.Metrics.Vcounter n -> Some (sample_key s, n) | _ -> None)
    (Obs.Metrics.snapshot ())
  @ [ ("transposition.hits", Xpiler_tuning.Transposition.hits ());
      ("transposition.misses", Xpiler_tuning.Transposition.misses ());
      ("transposition.evals", Xpiler_tuning.Transposition.evals ());
      ("smt_memo.hits", Xpiler_smt.Memo.hits ());
      ("smt_memo.misses", Xpiler_smt.Memo.misses ());
      ("repairer.repairs", (Xpiler_repair.Repairer.wall_totals ()).repairs);
      ("pool.maps", (Xpiler_util.Pool.stats ()).maps);
      ("pool.tasks", (Xpiler_util.Pool.stats ()).tasks) ]

let add_to tbl k n = Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k))

(* ---- per-cell trace digest (traced pass) --------------------------------- *)

type cell_trace = {
  counts : (string, int) Hashtbl.t;  (** Count events, summed by name *)
  sums : (string, float) Hashtbl.t;  (** Observe samples, summed by name *)
  mutable ut_runs : int;  (** unit-test charges outside repair spans *)
  mutable sa_calls : int;  (** static-analysis charges *)
  mutable sa_rejects : int;  (** ... not followed by a unit-test charge *)
  mutable annotate_calls : int;
  mutable cm_outside_mcts : int;  (** costmodel.evals outside MCTS spans *)
}

let digest_trace events =
  let ct =
    { counts = Hashtbl.create 32;
      sums = Hashtbl.create 8;
      ut_runs = 0;
      sa_calls = 0;
      sa_rejects = 0;
      annotate_calls = 0;
      cm_outside_mcts = 0
    }
  in
  let intervals name =
    List.filter_map
      (function
        | Obs.Event.Span { name = n; cat = "phase"; ts; dur; _ } when n = name ->
          Some (ts, ts +. dur)
        | _ -> None)
      events
  in
  let repair_spans = intervals "repair" and mcts_spans = intervals "mcts" in
  let inside spans ts = List.exists (fun (a, b) -> a <= ts && ts < b) spans in
  let pending_sa = ref false in
  List.iter
    (function
      | Obs.Event.Span { cat = "stage"; name; ts; _ } ->
        if !pending_sa && name <> "unit-test" then ct.sa_rejects <- ct.sa_rejects + 1;
        pending_sa := name = "static-analysis";
        if !pending_sa then ct.sa_calls <- ct.sa_calls + 1
        else if name = "unit-test" && not (inside repair_spans ts) then
          ct.ut_runs <- ct.ut_runs + 1
      | Obs.Event.Span { cat = "phase"; name = "annotate"; _ } ->
        ct.annotate_calls <- ct.annotate_calls + 1
      | Obs.Event.Span _ -> ()
      | Obs.Event.Count { name; ts; n } ->
        add_to ct.counts name n;
        if name = "costmodel.evals" && not (inside mcts_spans ts) then
          ct.cm_outside_mcts <- ct.cm_outside_mcts + n
      | Obs.Event.Observe { name; v; _ } ->
        Hashtbl.replace ct.sums name
          (v +. Option.value ~default:0.0 (Hashtbl.find_opt ct.sums name))
      | Obs.Event.Instant _ -> ())
    events;
  if !pending_sa then ct.sa_rejects <- ct.sa_rejects + 1;
  ct

(* ---- the timed loop ------------------------------------------------------ *)

type result = {
  cell : cell;
  latency : float;
  outcome : (Xpiler.outcome, string) Stdlib.result;  (** [Error] names the exception *)
  trace : cell_trace option;
}

let meters_before = meters ()
let () = if !traced then Obs.Prof.reset ()

let results =
  List.map
    (fun c ->
      let t0 = now () in
      let outcome =
        match Xpiler.transcompile ~config ~src:c.src ~dst:c.dst ~op:c.op ~shape:c.shape () with
        | o -> Ok o
        | exception e -> Error (Printexc.exn_slot_name e ^ ": " ^ Printexc.to_string e)
      in
      let latency = now () -. t0 in
      match outcome with
      | Ok o when !traced ->
        { cell = c;
          latency;
          outcome = Ok { o with Xpiler.trace = [] };
          trace = Some (digest_trace o.Xpiler.trace)
        }
      | _ -> { cell = c; latency; outcome; trace = None })
    cells

let loop_wall = List.fold_left (fun a r -> a +. r.latency) 0.0 results

(* high-water resident set of the whole process so far, in MB *)
let peak_rss_mb =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let heap_top_mb =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let meters_delta =
  List.map
    (fun (k, v) -> (k, v - Option.value ~default:0 (List.assoc_opt k meters_before)))
    (meters ())

let prof_report = if !traced then Some (Obs.Prof.report ()) else None
let repair_wall = (Xpiler_repair.Repairer.wall_totals ()).wall_seconds

(* ---- independent output check ------------------------------------------- *)

let accepted r = match r.outcome with Ok o -> Xpiler.accepted o.Xpiler.status | Error _ -> false
let output_kernel r = match r.outcome with Ok o -> o.Xpiler.kernel | Error _ -> None

let corrupted =
  if !corrupt then Option.map (fun r -> r.cell.case_id) (List.find_opt accepted results) else None

(* Inputs come from the benchmark's own seed and generator, never from the
   program's unit-test oracle: floats uniform in [-1, 1), integers in
   [-8, 8), booleans 0/1, outputs zeroed. *)
let gen_inputs (c : cell) =
  let rng = Random.State.make [| !check_seed; Hashtbl.hash (c.op.Opdef.name, c.shape) |] in
  List.map
    (fun (b : Opdef.buffer_spec) ->
      let n = b.size c.shape in
      let data =
        if b.is_output then Array.make n 0.0
        else
          Array.init n (fun _ ->
              match b.dtype with
              | Dtype.F32 | Dtype.F16 -> Random.State.float rng 2.0 -. 1.0
              | Dtype.I32 | Dtype.I8 -> float_of_int (Random.State.int rng 16 - 8)
              | Dtype.Bool -> float_of_int (Random.State.int rng 2))
      in
      (b, data))
    c.op.Opdef.buffers

let run_reference_engine kernel inputs =
  let args =
    List.map
      (fun ((b : Opdef.buffer_spec), data) ->
        (b.buf_name, Interp.Buf (Tensor.of_array ~dtype:b.dtype (Array.copy data))))
      inputs
  in
  let _ = Interp.run_tree kernel args in
  List.filter_map
    (fun ((b : Opdef.buffer_spec), _) ->
      match List.assoc_opt b.buf_name args with
      | Some (Interp.Buf t) when b.is_output -> Some (b.buf_name, t)
      | _ -> None)
    inputs

let close_enough (t : Tensor.t) (e : Tensor.t) =
  let close i =
    let a = Tensor.get t i and b = Tensor.get e i in
    (Float.is_nan a && Float.is_nan b) || Float.abs (a -. b) <= 1e-4 +. (1e-3 *. Float.abs b)
  in
  Tensor.length t = Tensor.length e && Seq.for_all close (Seq.init (Tensor.length e) Fun.id)

(* reference outputs once per op: the serial kernel is the operator's
   definition, so it is the oracle every direction shares *)
let reference_cache : (string, (string * Tensor.t) list) Hashtbl.t = Hashtbl.create 32

let check_output (c : cell) kernel =
  let inputs = gen_inputs c in
  let expected =
    match Hashtbl.find_opt reference_cache c.op.Opdef.name with
    | Some e -> e
    | None ->
      let e = run_reference_engine (c.op.Opdef.serial c.shape) inputs in
      Hashtbl.replace reference_cache c.op.Opdef.name e;
      e
  in
  match run_reference_engine kernel inputs with
  | exception Interp.Runtime_error m -> Error ("runtime error: " ^ m)
  | exception e -> Error (Printexc.to_string e)
  | got -> (
    let wrong (name, e) =
      match List.assoc_opt name got with Some t -> not (close_enough t e) | None -> true
    in
    match List.filter wrong expected with
    | [] -> Ok ()
    | bad -> Error ("output mismatch on " ^ String.concat "," (List.map fst bad)))

(* verdicts by (op, output digest): directions and earlier passes of the
   same run often end in the same kernel, and the inputs depend only on the
   op and the check seed *)
let verdict_memo : (string * string, (unit, string) Stdlib.result) Hashtbl.t =
  let tbl = Hashtbl.create 256 in
  if !check_seed >= 0 then begin
    try
      while true do
        Scanf.sscanf (input_line stdin) "%s %s" (fun op d -> Hashtbl.replace tbl (op, d) (Ok ()))
      done
    with End_of_file -> ()
  end;
  tbl

let verdicts =
  List.map
    (fun r ->
      match output_kernel r with
      | Some k when !check_seed >= 0 && accepted r ->
        let k = if corrupted = Some r.cell.case_id then Kernel.with_body k [] else k in
        let key = (r.cell.op.Opdef.name, Kernel.cache_key k) in
        Some
          (match Hashtbl.find_opt verdict_memo key with
          | Some v -> v
          | None ->
            let v = check_output r.cell k in
            Hashtbl.replace verdict_memo key v;
            v)
      | _ -> None)
    results

(* ---- layer probes (traced pass) ----------------------------------------- *)

(* wall seconds of one call, averaged over enough repeats to span >= 1 ms *)
let per_call f =
  let t0 = now () in
  ignore (Sys.opaque_identity (f ()));
  let first = now () -. t0 in
  if first >= 1e-3 then first
  else begin
    let reps = max 1 (min 1000 (int_of_float (1e-3 /. Float.max first 1e-7))) in
    let t0 = now () in
    for _ = 1 to reps do
      ignore (Sys.opaque_identity (f ()))
    done;
    (now () -. t0) /. float_of_int reps
  end

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* estimated wall seconds per layer over the whole pass *)
type probe = {
  mutable idiom : float;
  mutable annotate : float;
  mutable llm : float;
  mutable analyzer : float;
  mutable unit_test : float;
  mutable checker : float;  (** the final-program checks *)
  mutable costmodel : float;  (** evaluations outside MCTS *)
  mutable costmodel_all : float;
  mutable codegen : float;
  mutable engine_wall : float;  (** timed unit-test calls ... *)
  mutable engine_steps : int;  (** ... the statements they executed ... *)
  mutable engine_words : float;  (** ... and the words they allocated *)
  mutable self_attention : float;  (** wall of the self_attention cells *)
}

let probe_cell p r =
  if r.cell.op.Opdef.name = "self_attention" then
    p.self_attention <- p.self_attention +. r.latency;
  match (r.outcome, r.trace) with
  | Ok o, Some ct ->
    let c = r.cell in
    let count name = Option.value ~default:0 (Hashtbl.find_opt ct.counts name) in
    let scaled n per = float_of_int n *. per in
    let target = Platform.of_id c.dst in
    let source = Idiom.source c.src c.op c.shape in
    let final = Option.value ~default:source o.Xpiler.kernel in
    let kernels = [ source; final ] in
    let mean_over_kernels f =
      List.fold_left (fun a k -> a +. per_call (fun () -> f k)) 0.0 kernels /. 2.0
    in
    p.idiom <- p.idiom +. per_call (fun () -> Idiom.source c.src c.op c.shape);
    p.annotate <-
      p.annotate
      +. scaled ct.annotate_calls
           (per_call (fun () -> Xpiler_neural.Annotate.annotate ~target:c.dst source));
    (match o.Xpiler.ledger with
    | e :: _ ->
      let llm = Xpiler_neural.Llm.create ~seed:!seed () in
      let profile = Xpiler_neural.Profile.pass_level ~annotated:config.Config.annotate in
      let apply () = Xpiler_neural.Llm.apply_pass llm ~profile ~target e.Ledger.spec source in
      p.llm <- p.llm +. scaled (count "llm.attempts") (per_call apply)
    | [] -> ());
    let extents =
      List.map (fun (b : Opdef.buffer_spec) -> (b.buf_name, b.size c.shape)) c.op.Opdef.buffers
    in
    p.analyzer <-
      p.analyzer
      +. scaled ct.sa_calls
           (mean_over_kernels (fun k -> Xpiler_analysis.Analyzer.analyze ~extents k));
    (* engine speed on this cell's kernels: a warm-up call fills the compile
       and reference caches, the timed call runs under a Detail tracer that
       counts the statements executed *)
    let unit_test_call k =
      let check () = Unit_test.check ~trials:config.Config.unit_test_trials c.op c.shape k in
      ignore (check ());
      let t = Obs.Tracer.create ~level:Obs.Tracer.Detail () in
      Obs.Trace.install t;
      let w0 = alloc_words () and t0 = now () in
      ignore (Sys.opaque_identity (check ()));
      let dt = now () -. t0 and words = alloc_words () -. w0 in
      Obs.Trace.uninstall ();
      p.engine_wall <- p.engine_wall +. dt;
      p.engine_steps <- p.engine_steps + Obs.Tracer.counter_total t "interp.steps";
      p.engine_words <- p.engine_words +. words;
      dt
    in
    let ut = List.fold_left (fun a k -> a +. unit_test_call k) 0.0 kernels /. 2.0 in
    p.unit_test <- p.unit_test +. scaled ct.ut_runs ut;
    let final_checks = match o.Xpiler.status with Xpiler.Compile_error _ -> 2 | _ -> 1 in
    let check () = Checker.compile target final in
    p.checker <- p.checker +. scaled final_checks (per_call check);
    let cm = per_call (fun () -> Costmodel.throughput target final ~shapes:[]) in
    p.costmodel <- p.costmodel +. scaled ct.cm_outside_mcts cm;
    p.costmodel_all <- p.costmodel_all +. scaled (count "costmodel.evals") cm;
    if o.Xpiler.target_text <> None then
      p.codegen <-
        p.codegen
        +. per_call (fun () ->
               Xpiler_lang.Codegen.emit (Xpiler_lang.Dialect.of_platform c.dst) final)
  | _ -> ()

let probes =
  let p =
    { idiom = 0.0;
      annotate = 0.0;
      llm = 0.0;
      analyzer = 0.0;
      unit_test = 0.0;
      checker = 0.0;
      costmodel = 0.0;
      costmodel_all = 0.0;
      codegen = 0.0;
      engine_wall = 0.0;
      engine_steps = 0;
      engine_words = 0.0;
      self_attention = 0.0
    }
  in
  if !traced then List.iter (probe_cell p) results;
  p

(* ---- output -------------------------------------------------------------- *)

let status_name = function
  | Xpiler.Success -> "success"
  | Xpiler.Degraded -> "degraded"
  | Xpiler.Compile_error _ -> "compile-error"
  | Xpiler.Computation_error _ -> "computation-error"

let rung_counts =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun r ->
      match r.outcome with
      | Ok o ->
        List.iter
          (fun (e : Ledger.entry) -> add_to tbl (Ledger.rung_name e.Ledger.rung) 1)
          o.Xpiler.ledger
      | Error _ -> ())
    results;
  List.map
    (fun rung ->
      let k = Ledger.rung_name rung in
      (k, Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    [ Ledger.Validate; Ledger.Reprompt; Ledger.Smt; Ledger.Symbolic; Ledger.Skip ]

let cell_json r verdict =
  let c = r.cell in
  let outcome =
    match r.outcome with
    | Error e -> [ ("status", Json.Str "raised"); ("error", Json.Str e) ]
    | Ok o ->
      let clock = o.Xpiler.clock in
      let kernel_us =
        match o.Xpiler.kernel with
        | Some k when Xpiler.accepted o.Xpiler.status ->
          let est = Costmodel.estimate (Platform.of_id c.dst) k ~shapes:[] in
          Json.Float (est.Costmodel.seconds *. 1e6)
        | _ -> Json.Null
      in
      [ ("status", Json.Str (status_name o.Xpiler.status));
        ("vclock_s", Json.Float (Vclock.elapsed clock));
        ( "vclock",
          Json.Obj
            (List.map
               (fun s -> (Vclock.stage_name s, Json.Float (Vclock.stage_total clock s)))
               Vclock.all_stages) );
        ("kernel_us", kernel_us);
        ( "digest",
          match o.Xpiler.kernel with Some k -> Json.Str (Kernel.cache_key k) | None -> Json.Null );
        ("repairs_attempted", Json.Int o.Xpiler.repairs_attempted);
        ("repairs_succeeded", Json.Int o.Xpiler.repairs_succeeded);
        ( "llm_attempts",
          Json.Int
            (List.fold_left (fun a (e : Ledger.entry) -> a + e.Ledger.attempts) 0 o.Xpiler.ledger)
        ) ]
  in
  let check =
    match verdict with
    | None -> []
    | Some (Ok ()) -> [ ("verified", Json.Bool true) ]
    | Some (Error m) -> [ ("verified", Json.Bool false); ("verify_error", Json.Str m) ]
  in
  Json.Obj
    ([ ("case_id", Json.Str c.case_id);
       ("op", Json.Str c.op.Opdef.name);
       ("latency_s", Json.Float r.latency) ]
    @ outcome @ check)

let traced_layers () =
  let traces = List.filter_map (fun r -> r.trace) results in
  let outcomes = List.filter_map (fun r -> Result.to_option r.outcome) results in
  let sum_ct f = List.fold_left (fun a ct -> a + f ct) 0 traces in
  let count name = sum_ct (fun ct -> Option.value ~default:0 (Hashtbl.find_opt ct.counts name)) in
  let observed name =
    List.fold_left
      (fun a ct -> a +. Option.value ~default:0.0 (Hashtbl.find_opt ct.sums name))
      0.0 traces
  in
  let meter k = Option.value ~default:0 (List.assoc_opt k meters_delta) in
  let ratio hits misses =
    if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses)
  in
  let div a b = if b = 0.0 then 0.0 else a /. b in
  let mcts_wall =
    match prof_report with
    | Some rep -> (
      let is_mcts (s : Obs.Prof.span_row) = s.span = "mcts" in
      match List.find_opt is_mcts rep.Obs.Prof.span_rows with Some s -> s.wall_s | None -> 0.0)
    | None -> 0.0
  in
  (* the tuner's compile checks: one per intra compile-memo miss, priced at
     the mean final-program check *)
  let tuner_checks =
    div probes.checker (float_of_int (List.length results))
    *. float_of_int (meter "xpiler_intra_memo_lookups_total{result=miss,table=compile}")
  in
  (* disjoint layers only: the cost model and checker calls inside MCTS are
     part of its wall *)
  let explained =
    probes.idiom +. probes.annotate +. probes.llm +. probes.analyzer +. probes.unit_test
    +. repair_wall +. mcts_wall +. probes.checker +. probes.costmodel +. probes.codegen
  in
  let cc_hit = meter "xpiler_compile_cache_lookups_total{result=hit}"
  and cc_miss = meter "xpiler_compile_cache_lookups_total{result=miss}" in
  let sum_outcomes f = float_of_int (List.fold_left (fun a o -> a + f o) 0 outcomes) in
  let steps = float_of_int probes.engine_steps in
  let f x = Json.Float x and i x = Json.Int x in
  [ ("unit_test.runs", i (sum_ct (fun ct -> ct.ut_runs)));
    ("unit_test.wall_s", f probes.unit_test);
    ("unit_test.share", f (div probes.unit_test loop_wall));
    ("interp.runs", i (count "interp.runs"));
    ("interp.steps", i (count "interp.steps"));
    ("interp.ns_per_step", f (div (probes.engine_wall *. 1e9) steps));
    ("interp.alloc_words_per_step", f (div probes.engine_words steps));
    ("compile_cache.hit_ratio", f (ratio cc_hit cc_miss));
    ("compile_cache.lookups", i (cc_hit + cc_miss));
    ("compile_cache.resets", i (meter "xpiler_compile_cache_resets_total"));
    ("llm.attempts", i (count "llm.attempts"));
    ("llm.wall_s", f probes.llm);
    ("annotate.wall_s", f probes.annotate);
    ("analyzer.calls", i (sum_ct (fun ct -> ct.sa_calls)));
    ("analyzer.rejects", i (sum_ct (fun ct -> ct.sa_rejects)));
    ("analyzer.wall_s", f probes.analyzer);
    ("repair.calls", i (meter "repairer.repairs"));
    ( "repair.success_ratio",
      f
        (div
           (sum_outcomes (fun o -> o.Xpiler.repairs_succeeded))
           (sum_outcomes (fun o -> o.Xpiler.repairs_attempted))) );
    ("repair.wall_s", f repair_wall);
    ("repair.tests_run", i (int_of_float (observed "repair.tests_run")));
    ("repair.candidates", i (count "repair.candidates"));
    ("smt.queries", i (count "smt.queries"));
    ("smt.steps", i (int_of_float (observed "smt.steps")));
    ("smt.memo_hit_ratio", f (ratio (meter "smt_memo.hits") (meter "smt_memo.misses")));
    ("mcts.wall_s", f mcts_wall);
    ("mcts.simulations", i (count "mcts.simulations"));
    ("mcts.expansions", i (count "mcts.expansions"));
    ("intra.variants", i (count "intra.variants"));
    ("intra.pruned", i (count "intra.pruned"));
    ("costmodel.evals", i (count "costmodel.evals"));
    ("costmodel.wall_s", f probes.costmodel_all);
    ( "transposition.hit_ratio",
      f (ratio (meter "transposition.hits") (meter "transposition.misses")) );
    ("transposition.entries", i (Xpiler_tuning.Transposition.size ()));
    ("transposition.evictions", i (meter "xpiler_transposition_evictions_total"));
    ( "schedule_db.hit_ratio",
      f
        (ratio
           (meter "xpiler_schedule_db_lookups_total{result=hit}")
           (meter "xpiler_schedule_db_lookups_total{result=miss}")) );
    ("heap.top_mb", f heap_top_mb);
    ("checker.wall_s", f (probes.checker +. tuner_checks));
    ("codegen.wall_s", f probes.codegen);
    ("idiom.wall_s", f probes.idiom);
    ("self_attention.share", f (div probes.self_attention loop_wall));
    ("explained_share", f (div explained loop_wall)) ]

let () =
  let counts l = Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) l) in
  let fields =
    [ ("workload", Json.Str !workload_name);
      ("seed", Json.Int !seed);
      ("traced", Json.Bool !traced);
      ("first_cell_at", Json.Float first_cell_at);
      ("loop_wall_s", Json.Float loop_wall);
      ("peak_rss_mb", Json.Float peak_rss_mb);
      ("corrupted", match corrupted with Some id -> Json.Str id | None -> Json.Null);
      ("rungs", counts rung_counts);
      ("meters", counts meters_delta);
      ("cells", Json.List (List.map2 cell_json results verdicts)) ]
    @ if !traced then [ ("layers", Json.Obj (traced_layers ())) ] else []
  in
  print_endline (Json.to_string (Json.Obj fields))
