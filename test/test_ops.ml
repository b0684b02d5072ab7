open Xpiler_ir
open Xpiler_machine
open Xpiler_ops

let platforms = [ Platform.Cuda; Platform.Bang; Platform.Hip; Platform.Vnni ]

let test_registry () =
  Alcotest.(check int) "21 operators" 21 (List.length Registry.all);
  Alcotest.(check int) "168 cases" 168 (List.length (Registry.cases ()));
  List.iter
    (fun (op : Opdef.t) ->
      Alcotest.(check int) (op.name ^ " has 8 shapes") 8 (List.length op.shapes))
    Registry.all

let test_serial_wellformed () =
  List.iter
    (fun (c : Registry.case) ->
      let k = c.op.serial c.shape in
      match Validate.check k with
      | Ok () -> ()
      | Error es -> Alcotest.fail (c.case_id ^ ": " ^ Validate.errors_to_string es))
    (Registry.cases ())

let test_serial_passes_own_unit_test () =
  (* first shape of each op, serial kernel vs itself: oracle sanity *)
  List.iter
    (fun (op : Opdef.t) ->
      let shape = List.hd op.shapes in
      match Unit_test.check ~trials:1 op shape (op.serial shape) with
      | Unit_test.Pass -> ()
      | Unit_test.Fail m -> Alcotest.fail (op.name ^ ": " ^ m))
    Registry.all

let test_corrupted_kernel_fails () =
  let op = Registry.find_exn "gemm" in
  let shape = List.hd op.shapes in
  let k = op.serial shape in
  (* perturb a loop bound: classic instruction/boundary error *)
  let bad =
    Kernel.map_body
      (Stmt.map_block (fun s ->
           match s with
           | Stmt.For ({ var = "p"; extent = Expr.Int n; _ } as r) ->
             Some (Stmt.For { r with extent = Expr.Int (n - 1) })
           | s -> Some s))
      k
  in
  match Unit_test.check ~trials:1 op shape bad with
  | Unit_test.Fail _ -> ()
  | Unit_test.Pass -> Alcotest.fail "corrupted kernel must fail its unit test"

let idiom_case pid (op : Opdef.t) shape =
  let platform = Platform.of_id pid in
  let k = Idiom.source pid op shape in
  (match Checker.compile platform k with
  | Ok () -> ()
  | Error es ->
    Alcotest.fail
      (Printf.sprintf "%s on %s does not compile:\n%s\n%s" op.name platform.Platform.name
         (Checker.errors_to_string es) (Kernel.to_string k)));
  match Unit_test.check ~trials:1 op shape k with
  | Unit_test.Pass -> ()
  | Unit_test.Fail m ->
    Alcotest.fail
      (Printf.sprintf "%s on %s: %s\n%s" op.name platform.Platform.name m (Kernel.to_string k))

let test_idioms_first_shape () =
  List.iter
    (fun (op : Opdef.t) ->
      let shape = List.hd op.shapes in
      List.iter (fun pid -> idiom_case pid op shape) platforms)
    Registry.all

let test_bang_gemm_idiom_is_tensorized () =
  let op = Registry.find_exn "gemm" in
  let k = Idiom.source Platform.Bang op (List.hd op.shapes) in
  Alcotest.(check bool) "mlp present" true
    (List.exists
       (fun (i : Intrin.t) -> Intrin.equal_op i.op Intrin.Mlp)
       (Stmt.intrinsics k.Kernel.body))

let test_bang_gemv_idiom_is_tensorized () =
  let op = Registry.find_exn "gemv" in
  let k = Idiom.source Platform.Bang op (List.hd op.shapes) in
  let ops = List.map (fun (i : Intrin.t) -> i.op) (Stmt.intrinsics k.Kernel.body) in
  Alcotest.(check bool) "dot product vectorized" true
    (List.mem Intrin.Vec_mul ops && List.mem Intrin.Vec_reduce_sum ops)

let test_bang_batch_gemm_idiom_is_tensorized () =
  let op = Registry.find_exn "batch_gemm" in
  let k = Idiom.source Platform.Bang op (List.hd op.shapes) in
  Alcotest.(check bool) "mlp present" true
    (List.exists
       (fun (i : Intrin.t) -> Intrin.equal_op i.op Intrin.Mlp)
       (Stmt.intrinsics k.Kernel.body));
  Alcotest.(check bool) "batch bound to tasks" true
    (List.mem Axis.Task_id (Stmt.axes_used k.Kernel.body))

let test_bang_attention_idiom_is_tensorized () =
  let op = Registry.find_exn "self_attention" in
  let k = Idiom.source Platform.Bang op (List.nth op.shapes 1) in
  let ops = List.map (fun (i : Intrin.t) -> i.op) (Stmt.intrinsics k.Kernel.body) in
  List.iter
    (fun o -> Alcotest.(check bool) (Intrin.op_name o ^ " used") true (List.mem o ops))
    [ Intrin.Vec_mul; Intrin.Vec_exp; Intrin.Vec_reduce_max; Intrin.Vec_reduce_sum;
      Intrin.Vec_scale ]

let test_bang_conv_idiom_is_tensorized () =
  let op = Registry.find_exn "conv2d_nhwc" in
  let k = Idiom.source Platform.Bang op (List.hd op.shapes) in
  Alcotest.(check bool) "conv intrinsic" true
    (List.exists
       (fun (i : Intrin.t) -> Intrin.equal_op i.op Intrin.Conv2d)
       (Stmt.intrinsics k.Kernel.body))

let test_bang_softmax_idiom_is_tensorized () =
  let op = Registry.find_exn "softmax" in
  let k = Idiom.source Platform.Bang op (List.hd op.shapes) in
  let ops = List.map (fun (i : Intrin.t) -> i.op) (Stmt.intrinsics k.Kernel.body) in
  Alcotest.(check bool) "exp vectorized" true (List.mem Intrin.Vec_exp ops);
  Alcotest.(check bool) "reduce vectorized" true (List.mem Intrin.Vec_reduce_sum ops)

let test_cuda_idioms_use_grid () =
  List.iter
    (fun name ->
      let op = Registry.find_exn name in
      let k = Idiom.source Platform.Cuda op (List.hd op.shapes) in
      Alcotest.(check bool) (name ^ " uses blockIdx") true
        (List.mem Axis.Block_x (Stmt.axes_used k.Kernel.body)))
    [ "add"; "relu"; "softmax"; "conv2d_nhwc"; "self_attention" ]

let test_cuda_gemm_uses_tensor_core () =
  let op = Registry.find_exn "gemm" in
  let k = Idiom.source Platform.Cuda op (List.hd op.shapes) in
  Alcotest.(check bool) "mma present" true
    (List.exists
       (fun (i : Intrin.t) -> Intrin.equal_op i.op Intrin.Mma)
       (Stmt.intrinsics k.Kernel.body));
  (* fragments spelled with wmma in the surface text *)
  let text = Idiom.source_text Platform.Cuda op (List.hd op.shapes) in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "wmma::mma_sync in source" true (contains text "wmma::mma_sync");
  Alcotest.(check bool) "__fragment__ in source" true (contains text "__fragment__")

let test_idiom_source_text_parses_back () =
  List.iter
    (fun name ->
      let op = Registry.find_exn name in
      let shape = List.hd op.shapes in
      List.iter
        (fun pid ->
          let text = Idiom.source_text pid op shape in
          match Xpiler_lang.Parser.parse_platform pid text with
          | _ -> ()
          | exception Xpiler_lang.Parser.Parse_error m ->
            Alcotest.fail
              (Printf.sprintf "%s/%s does not re-parse: %s\n%s" name
                 (Platform.id_to_string pid) m text))
        platforms)
    [ "gemm"; "add"; "softmax"; "maxpool"; "conv1d" ]

(* property: a randomly chosen case's idiom preserves semantics on every
   platform *)
let prop_random_case_idioms =
  let cases = Array.of_list (Registry.cases ()) in
  QCheck.Test.make ~name:"random case idioms are correct on all platforms" ~count:12
    (QCheck.int_range 0 (Array.length cases - 1))
    (fun i ->
      let c = cases.(i) in
      List.for_all
        (fun pid ->
          let k = Idiom.source pid c.op c.shape in
          Unit_test.check ~trials:1 c.op c.shape k = Unit_test.Pass)
        platforms)

let test_shape_of_string () =
  let gemm = Option.get (Registry.find "gemm") in
  let ok = Alcotest.(result (list (pair string int)) string) in
  List.iter
    (fun (input, expect) ->
      match (Opdef.shape_of_string gemm input, expect) with
      | Ok shape, Ok want -> Alcotest.check ok input (Ok want) (Ok shape)
      | Error _, Error () -> ()
      | got, _ ->
        Alcotest.failf "%S: unexpected %s" input
          (match got with Ok _ -> "acceptance" | Error m -> "rejection: " ^ m))
    [ ("m=16,n=8,k=4", Ok [ ("m", 16); ("n", 8); ("k", 4) ]);
      (* canonical dimension order, surrounding blanks ignored *)
      (" k=4, n = 8,m=16", Ok [ ("m", 16); ("n", 8); ("k", 4) ]);
      ("m=abc,n=4,k=4", Error ());
      ("m=16", Error ());
      ("m=-4,n=4,k=4", Error ());
      ("m=0,n=4,k=4", Error ());
      ("m=1,m=2,n=1,k=1", Error ());
      ("q=1,m=1,n=1,k=1", Error ());
      ("m=1,,n=1,k=1", Error ());
      ("m=1=2,n=1,k=1", Error ());
      ("", Error ());
      (* element budget: 3 * 4096^2 elements fit, 3 * 8192^2 do not *)
      ("m=4096,n=4096,k=4096", Ok [ ("m", 4096); ("n", 4096); ("k", 4096) ]);
      ("m=8192,n=8192,k=8192", Error ());
      ("m=100000,n=100000,k=100000", Error ());
      ("m=1,n=1,k=67108864", Error ());
      (* products that would overflow the size arithmetic *)
      ("m=2097152,n=2097152,k=2097152", Error ());
      ("m=4611686018427387903,n=2,k=2", Error ())
    ];
  (* every registered shape round-trips through its text form *)
  List.iter
    (fun (op : Opdef.t) ->
      List.iter
        (fun shape ->
          let text =
            String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) shape)
          in
          Alcotest.check ok (op.name ^ " " ^ text) (Ok shape) (Opdef.shape_of_string op text))
        op.shapes)
    Registry.all

(* ---- verdict memo -------------------------------------------------------- *)

module Kgen = Test_support.Kgen
module Rng = Xpiler_util.Rng

(* a pseudo-operator over the fuzz generator's buffers whose reference is
   [reference]; every such op is named "fuzz" *)
let fuzz_op reference : Opdef.t =
  { name = "fuzz";
    cls = Opdef.Elementwise;
    shapes = [ [] ];
    buffers =
      List.map
        (fun (buf_name, size) ->
          { Opdef.buf_name; dtype = Dtype.F32; size = (fun _ -> size);
            is_output = String.equal buf_name "out" })
        Kgen.buffer_sizes;
    serial = (fun _ -> reference);
    flops = (fun _ -> 1.0)
  }

let store_kernel value =
  Kernel.make ~name:"fuzz"
    ~params:[ Builder.buffer "a"; Builder.buffer "b"; Builder.buffer "out" ]
    [ Stmt.Store { buf = "out"; index = Expr.Int 0; value } ]

let verdict_t =
  Alcotest.testable
    (fun ppf -> function
      | Unit_test.Pass -> Format.pp_print_string ppf "pass"
      | Unit_test.Fail m -> Format.fprintf ppf "fail: %s" m)
    ( = )

(* the fuzz corpus: each kernel judged against itself, a fault-injected
   copy of itself and an unrelated kernel *)
let memo_corpus () =
  List.init 40 (fun seed ->
      let k = Kgen.kernel (Rng.create seed) in
      let injected =
        match Xpiler_neural.Fault.inject_index (Rng.create (seed + 99)) k with
        | Some (broken, _) -> [ broken ]
        | None -> []
      in
      (fuzz_op k, (k :: injected) @ [ Kgen.kernel (Rng.create (seed + 1000)) ]))

let test_memo_matches_oracle () =
  Unit_test.reset_memo ();
  let passes = ref 0 and fails = ref 0 in
  List.iter
    (fun (op, kernels) ->
      List.iter
        (fun k ->
          let oracle = Unit_test.check op [] k in
          let trial0 = Unit_test.check ~trials:1 op [] k in
          let scored = Unit_test.check_scored op [] k in
          let score = Unit_test.mismatch_score op [] k in
          if oracle = Unit_test.Pass then incr passes else incr fails;
          (* cold, then warm *)
          for _ = 1 to 2 do
            Alcotest.check verdict_t "trial 0" trial0 (Unit_test.verdict ~trials:1 op [] k);
            Alcotest.check verdict_t "two trials" oracle (Unit_test.verdict op [] k);
            Alcotest.(check (pair verdict_t int))
              "scored" scored (Unit_test.verdict_scored op [] k);
            Alcotest.(check int) "score" score (Unit_test.score op [] k)
          done)
        kernels)
    (memo_corpus ());
  Alcotest.(check bool) "corpus has passing and failing kernels" true (!passes > 0 && !fails > 0);
  Alcotest.(check bool) "the memo was used" true ((Unit_test.memo_stats ()).hits > 0)

let test_memo_trials_reuse () =
  let gemm = Registry.find_exn "gemm" in
  let shape = List.hd gemm.Opdef.shapes in
  let k = gemm.Opdef.serial shape in
  Unit_test.reset_memo ();
  let before = Unit_test.memo_stats () in
  Alcotest.check verdict_t "one trial" Unit_test.Pass (Unit_test.verdict ~trials:1 gemm shape k);
  Alcotest.(check int) "one entry" 1 (Unit_test.memo_length ());
  Alcotest.check verdict_t "two trials" Unit_test.Pass (Unit_test.verdict ~trials:2 gemm shape k);
  Alcotest.(check int) "two entries" 2 (Unit_test.memo_length ());
  let after = Unit_test.memo_stats () in
  Alcotest.(check int) "trial 0 reused" 1 (after.hits - before.hits);
  Alcotest.(check int) "one miss per trial" 2 (after.misses - before.misses)

let test_memo_op_identity () =
  let k1 = store_kernel (Expr.Float 1.0) and k2 = store_kernel (Expr.Float 2.0) in
  let op1 = fuzz_op k1 and op2 = fuzz_op k2 in
  Unit_test.reset_memo ();
  Alcotest.check verdict_t "own reference" Unit_test.Pass (Unit_test.verdict op1 [] k1);
  (* same name, same shape, same kernel: only the op's identity differs *)
  let expect = Unit_test.check op2 [] k1 in
  Alcotest.(check bool) "the other reference rejects it" true (expect <> Unit_test.Pass);
  Alcotest.check verdict_t "not served op1's verdict" expect (Unit_test.verdict op2 [] k1)

(* Kernel.equal compares floats with Float.equal and Kernel.hash normalises
   -0.0, so a structural key would serve one of these kernels the other's
   verdict; the memo keys on the content digest instead *)
let test_memo_signed_zero () =
  let clamp_inv zero =
    store_kernel
      (Expr.Binop (Expr.Min, Expr.Binop (Expr.Div, Expr.Float 1.0, Expr.Float zero), Expr.Float 1.0))
  in
  let pos = clamp_inv 0.0 and neg = clamp_inv (-0.0) in
  let op = fuzz_op pos in
  Unit_test.reset_memo ();
  List.iter
    (fun (name, k) ->
      Alcotest.check verdict_t name (Unit_test.check op [] k) (Unit_test.verdict op [] k))
    [ ("1.0 / 0.0", pos); ("1.0 / -0.0", neg); ("1.0 / 0.0 again", pos); ("1.0 / -0.0 again", neg) ];
  Alcotest.(check bool) "the two kernels get different verdicts" true
    (Unit_test.verdict op [] pos <> Unit_test.verdict op [] neg)

let test_memo_bypassed_while_tracing () =
  let k = store_kernel (Expr.Float 3.0) in
  let op = fuzz_op k in
  Unit_test.reset_memo ();
  Xpiler_obs.Trace.install (Xpiler_obs.Tracer.create ());
  Fun.protect ~finally:Xpiler_obs.Trace.uninstall (fun () ->
      ignore (Unit_test.verdict op [] k);
      ignore (Unit_test.verdict_scored op [] k);
      ignore (Unit_test.score op [] k));
  Alcotest.(check int) "nothing stored" 0 (Unit_test.memo_length ());
  ignore (Unit_test.verdict op [] k);
  Alcotest.(check int) "stored once the tracer is gone" 2 (Unit_test.memo_length ())

let test_memo_capacity () =
  let op = fuzz_op (store_kernel (Expr.Float 0.0)) in
  Unit_test.reset_memo ();
  let before = Unit_test.memo_stats () in
  for i = 0 to Unit_test.memo_capacity + 100 do
    ignore (Unit_test.verdict ~trials:1 op [] (store_kernel (Expr.Float (float_of_int i))));
    if Unit_test.memo_length () > Unit_test.memo_capacity then
      Alcotest.failf "memo holds %d entries after %d kernels" (Unit_test.memo_length ()) (i + 1)
  done;
  Alcotest.(check bool) "entries were evicted" true
    ((Unit_test.memo_stats ()).evictions > before.evictions)

let () =
  Alcotest.run "ops"
    [ ( "registry",
        [ Alcotest.test_case "inventory" `Quick test_registry;
          Alcotest.test_case "serial kernels well-formed" `Quick test_serial_wellformed;
          Alcotest.test_case "serial passes unit test" `Quick test_serial_passes_own_unit_test;
          Alcotest.test_case "corrupted kernel fails" `Quick test_corrupted_kernel_fails;
          Alcotest.test_case "shape parsing" `Quick test_shape_of_string
        ] );
      ( "idioms",
        [ Alcotest.test_case "all ops, first shape, 4 platforms" `Slow test_idioms_first_shape;
          Alcotest.test_case "bang gemm tensorized" `Quick test_bang_gemm_idiom_is_tensorized;
          Alcotest.test_case "bang softmax tensorized" `Quick
            test_bang_softmax_idiom_is_tensorized;
          Alcotest.test_case "bang gemv tensorized" `Quick test_bang_gemv_idiom_is_tensorized;
          Alcotest.test_case "bang batch-gemm tensorized" `Quick
            test_bang_batch_gemm_idiom_is_tensorized;
          Alcotest.test_case "bang attention tensorized" `Quick
            test_bang_attention_idiom_is_tensorized;
          Alcotest.test_case "bang conv tensorized" `Quick test_bang_conv_idiom_is_tensorized;
          Alcotest.test_case "cuda idioms use grid" `Quick test_cuda_idioms_use_grid;
          Alcotest.test_case "cuda gemm tensor core" `Quick test_cuda_gemm_uses_tensor_core;
          Alcotest.test_case "source text re-parses" `Quick test_idiom_source_text_parses_back
        ] );
      ( "memo",
        [ Alcotest.test_case "matches the oracle" `Quick test_memo_matches_oracle;
          Alcotest.test_case "two trials reuse one" `Quick test_memo_trials_reuse;
          Alcotest.test_case "op identity" `Quick test_memo_op_identity;
          Alcotest.test_case "signed zero" `Quick test_memo_signed_zero;
          Alcotest.test_case "bypassed while tracing" `Quick test_memo_bypassed_while_tracing;
          Alcotest.test_case "bounded" `Quick test_memo_capacity
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_random_case_idioms ])
    ]
