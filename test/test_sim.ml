(* GPU simulator: memory, interpreter semantics, statistics, timing. *)

open Kft_cuda.Ast
module Mem = Kft_sim.Memory
module I = Kft_sim.Interp
module T = Kft_sim.Timing
module V = Kft_verify.Verify

let dims = (16, 8, 4)
let cells = 16 * 8 * 4

let one_kernel_prog src name args_arrays coef =
  let k = Kft_cuda.Parse.kernel src in
  {
    p_name = "t";
    p_arrays = List.map (Util.arr3 dims) [ "A"; "B"; "C" ];
    p_kernels = [ k ];
    p_schedule =
      [
        Launch
          { l_kernel = name; l_domain = (16, 8, 1); l_block = (8, 4, 1);
            l_args = Util.std_args dims args_arrays coef };
      ];
  }

let test_memory_basics () =
  let mem = Mem.create [ Util.arr3 dims "A"; Util.arr3 dims "B" ] in
  Alcotest.(check (list string)) "names" [ "A"; "B" ] (Mem.names mem);
  Alcotest.(check int) "length" cells (Bigarray.Array1.dim (Mem.get mem "A"));
  Alcotest.(check bool) "dims" true (Mem.dims mem "A" = [ 16; 8; 4 ]);
  Util.check_float "zero init" 0.0 (Mem.get mem "A").{0}

let test_memory_seeded_deterministic () =
  let mem1 = Mem.create [ Util.arr3 dims "A" ] and mem2 = Mem.create [ Util.arr3 dims "A" ] in
  Mem.init_seeded mem1 ~seed:7;
  Mem.init_seeded mem2 ~seed:7;
  Alcotest.(check bool) "same fill" true (Mem.equal_within ~tol:0.0 mem1 mem2);
  Mem.init_seeded mem2 ~seed:8;
  Alcotest.(check bool) "different seed differs" false (Mem.equal_within ~tol:0.0 mem1 mem2);
  Alcotest.(check bool) "no zeros" true (Array.for_all (fun v -> v <> 0.0) (Mem.get_array mem1 "A"))

let test_memory_diff () =
  let mem1 = Mem.create [ Util.arr3 dims "A" ] and mem2 = Mem.create [ Util.arr3 dims "A" ] in
  (Mem.get mem2 "A").{5} <- 3.5;
  (match Mem.max_abs_diff mem1 mem2 with
  | [ ("A", d) ] -> Util.check_float "max diff" 3.5 d
  | _ -> Alcotest.fail "diff shape");
  Alcotest.(check bool) "not equal" false (Mem.equal_within ~tol:1.0 mem1 mem2);
  Alcotest.(check bool) "equal within 4" true (Mem.equal_within ~tol:4.0 mem1 mem2)

let test_pointwise_execution () =
  let prog = one_kernel_prog (Util.pointwise_src ~name:"pw" ~a:"A" ~b:"B" ~dst:"C") "pw"
      [ "A"; "B"; "C" ] 0.5 in
  let mem = Mem.create prog.p_arrays in
  Mem.init_seeded mem ~seed:1;
  let a = Mem.get_array mem "A" and b = Mem.get_array mem "B" in
  let stats = I.launch mem prog (Util.launch_of prog "pw") in
  let c = Mem.get_array mem "C" in
  Array.iteri (fun i av -> Util.check_float "c = 0.5(a+b)" (0.5 *. (av +. b.(i))) c.(i)) a;
  Alcotest.(check int) "write bytes" (cells * 8) stats.global_write_bytes;
  Alcotest.(check int) "read bytes" (cells * 2 * 8) stats.global_read_bytes;
  Util.check_float "flops (2 per cell)" (float_of_int (2 * cells)) stats.flops

let test_stencil_execution () =
  (* 5-point horizontal stencil checked against a reference loop *)
  let prog =
    one_kernel_prog
      (Util.stencil_src ~name:"st" ~src:"A" ~dst:"B" ~margin:1 ~threed:false)
      "st" [ "A"; "B" ] 0.25
  in
  let mem = Mem.create prog.p_arrays in
  Mem.init_seeded mem ~seed:2;
  let a = Mem.get_array mem "A" in
  let b0 = Mem.get_array mem "B" in
  ignore (I.launch mem prog (Util.launch_of prog "st"));
  let b = Mem.get_array mem "B" in
  let nx, ny, _ = dims in
  let idx i j k = ((k * ny) + j) * nx + i in
  for k = 0 to 3 do
    for j = 1 to ny - 2 do
      for i = 1 to nx - 2 do
        let expect =
          0.25 *. (a.(idx (i + 1) j k) +. a.(idx (i - 1) j k) +. a.(idx i (j + 1) k) +. a.(idx i (j - 1) k))
        in
        Util.check_float "stencil cell" expect b.(idx i j k)
      done
    done
  done;
  (* guarded boundary cells keep their previous contents *)
  Util.check_float "boundary untouched" b0.(idx 0 0 0) b.(idx 0 0 0)

let test_guard_divergence_counted () =
  let prog =
    one_kernel_prog
      (Util.stencil_src ~name:"st" ~src:"A" ~dst:"B" ~margin:1 ~threed:false)
      "st" [ "A"; "B" ] 0.25
  in
  let mem = Mem.create prog.p_arrays in
  let stats = I.launch mem prog (Util.launch_of prog "st") in
  Alcotest.(check bool) "cond evals counted" true (stats.warp_cond_evals > 0);
  Alcotest.(check bool) "divergence observed" true (stats.divergent_warp_cond_evals > 0)

let test_out_of_bounds () =
  let src =
    {|
__global__ void oob(const double *A, double *B, int nx, int ny, int nz, double c) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) {
      B[(k * ny + j) * nx + i] = A[(k * ny + j) * nx + i + 1];
    }
  }
}
|}
  in
  let prog = one_kernel_prog src "oob" [ "A"; "B" ] 1.0 in
  let mem = Mem.create prog.p_arrays in
  match I.launch mem prog (Util.launch_of prog "oob") with
  | (_ : I.stats) -> Alcotest.fail "expected out-of-bounds error"
  | exception I.Sim_error { kernel = "oob"; _ } -> ()

let test_syncthreads_staging () =
  (* shared-memory staging with a barrier: same result as direct reads *)
  let src =
    {|
__global__ void stage(const double *A, double *B, int nx, int ny, int nz, double c) {
  int tx = threadIdx.x;
  int ty = threadIdx.y;
  int i = blockIdx.x * blockDim.x + tx;
  int j = blockIdx.y * blockDim.y + ty;
  __shared__ double s[4][8];
  for (int k = 0; k < nz; k++) {
    if (i < nx && j < ny) {
      s[ty][tx] = A[(k * ny + j) * nx + i];
    }
    __syncthreads();
    if (i < nx && j < ny) {
      B[(k * ny + j) * nx + i] = c * s[ty][tx];
    }
    __syncthreads();
  }
}
|}
  in
  let prog = one_kernel_prog src "stage" [ "A"; "B" ] 2.0 in
  let mem = Mem.create prog.p_arrays in
  Mem.init_seeded mem ~seed:3;
  let a = Mem.get_array mem "A" in
  let stats = I.launch mem prog (Util.launch_of prog "stage") in
  let b = Mem.get_array mem "B" in
  Array.iteri (fun i av -> Util.check_float "staged copy" (2.0 *. av) b.(i)) a;
  Alcotest.(check int) "shared bytes" (4 * 8 * 8) stats.shared_bytes_per_block;
  let r = V.verify_program prog in
  Alcotest.(check bool) "verifier: clean with barrier" true (V.is_clean r);
  Alcotest.(check int) "verifier: races proved, not walked" 1 r.stats.race_proved

let test_hazard_detection () =
  (* neighbour read of shared without a barrier: the simulator runs it
     (lockstep hides the race), the static verifier reports it *)
  let src =
    {|
__global__ void racy(const double *A, double *B, int nx, int ny, int nz, double c) {
  int tx = threadIdx.x;
  int ty = threadIdx.y;
  int i = blockIdx.x * blockDim.x + tx;
  int j = blockIdx.y * blockDim.y + ty;
  __shared__ double s[4][8];
  for (int k = 0; k < nz; k++) {
    if (i < nx && j < ny) {
      s[ty][tx] = A[(k * ny + j) * nx + i];
    }
    if (i < nx && j < ny && tx > 0) {
      B[(k * ny + j) * nx + i] = c * s[ty][tx - 1];
    }
    __syncthreads();
  }
}
|}
  in
  let prog = one_kernel_prog src "racy" [ "A"; "B" ] 1.0 in
  let mem = Mem.create prog.p_arrays in
  ignore (I.launch mem prog (Util.launch_of prog "racy"));
  let r = V.verify_program prog in
  Alcotest.(check bool) "shared race reported" true
    (List.exists (fun (d : V.diagnostic) -> d.d_pass = V.Race) r.diagnostics)

let test_barrier_divergence_rejected () =
  let src =
    {|
__global__ void baddiv(const double *A, double *B, int nx, int ny, int nz, double c) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < 3) {
    __syncthreads();
  }
  B[0] = c * A[0];
}
|}
  in
  let prog = one_kernel_prog src "baddiv" [ "A"; "B" ] 1.0 in
  let mem = Mem.create prog.p_arrays in
  match I.launch mem prog (Util.launch_of prog "baddiv") with
  | (_ : I.stats) -> Alcotest.fail "expected barrier divergence error"
  | exception I.Sim_error _ -> ()

let test_return_guard () =
  let src =
    {|
__global__ void early(const double *A, double *B, int nx, int ny, int nz, double c) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i >= nx) {
    return;
  }
  B[j * nx + i] = c * A[j * nx + i];
}
|}
  in
  let prog = one_kernel_prog src "early" [ "A"; "B" ] 3.0 in
  let mem = Mem.create prog.p_arrays in
  Mem.init_seeded mem ~seed:4;
  let a = Mem.get_array mem "A" in
  ignore (I.launch mem prog (Util.launch_of prog "early"));
  Util.check_float "plane written" (3.0 *. a.(0)) (Mem.get mem "B").{0}

let test_schedule_runs_in_order () =
  let prog = Util.producer_consumer_program ~dims:(16, 8, 4) ~block:(8, 4, 1) () in
  let mem = Mem.create prog.p_arrays in
  Mem.init_seeded mem ~seed:5;
  let results = I.run_schedule mem prog in
  Alcotest.(check int) "two launches" 2 (List.length results);
  (* consume must see produce's B values: C = 0.5 * (B_new + A) *)
  let b = Mem.get_array mem "B" and a = Mem.get_array mem "A" and c = Mem.get_array mem "C" in
  Array.iteri (fun i bv -> Util.check_float "RAW respected" (0.5 *. (bv +. a.(i))) c.(i)) b

let mk_stats ?(read = 0) ?(write = 0) ?(flops = 0.0) ?(div = 0) ?(evals = 0) ?(blocks = 8)
    ?(threads = 256) () =
  {
    I.global_read_bytes = read;
    global_write_bytes = write;
    flops;
    warp_cond_evals = evals;
    divergent_warp_cond_evals = div;
    threads_launched = threads;
    threads_active = threads;
    shared_bytes_per_block = 0;
    blocks_launched = blocks;
  }

let evaluate stats =
  T.evaluate
    { device = Util.device; stats; block = (16, 8, 1); regs_per_thread = 32; dependent_chain = 5 }

let test_timing_memory_bound () =
  let b = evaluate (mk_stats ~read:1_000_000 ~write:1_000_000 ~flops:1000.0 ()) in
  Alcotest.(check bool) "memory dominates" true (b.memory_time_us > b.compute_time_us);
  Alcotest.(check bool) "runtime includes overhead" true
    (b.runtime_us >= Util.device.kernel_launch_overhead_us)

let test_timing_more_bytes_slower () =
  let t1 = (evaluate (mk_stats ~read:1_000_000 ())).runtime_us in
  let t2 = (evaluate (mk_stats ~read:4_000_000 ())).runtime_us in
  Alcotest.(check bool) "monotone in traffic" true (t2 > t1)

let test_timing_divergence_penalty () =
  let t1 = (evaluate (mk_stats ~read:1_000_000 ~evals:100 ~div:0 ())).runtime_us in
  let t2 = (evaluate (mk_stats ~read:1_000_000 ~evals:100 ~div:100 ())).runtime_us in
  Alcotest.(check bool) "divergence costs" true (t2 > t1)

let test_timing_latency_term () =
  (* few warps + long chain: latency dominates *)
  let stats = mk_stats ~read:8_192 ~blocks:4 ~threads:128 () in
  let b =
    T.evaluate
      { device = Util.device; stats; block = (32, 1, 1); regs_per_thread = 32; dependent_chain = 400 }
  in
  Alcotest.(check bool) "latency dominates" true
    (b.latency_time_us > b.memory_time_us && b.latency_time_us > b.compute_time_us)

let suite =
  [
    Alcotest.test_case "memory basics" `Quick test_memory_basics;
    Alcotest.test_case "seeded memory deterministic" `Quick test_memory_seeded_deterministic;
    Alcotest.test_case "memory diff" `Quick test_memory_diff;
    Alcotest.test_case "pointwise execution" `Quick test_pointwise_execution;
    Alcotest.test_case "stencil execution vs reference" `Quick test_stencil_execution;
    Alcotest.test_case "divergence counted" `Quick test_guard_divergence_counted;
    Alcotest.test_case "out-of-bounds detected" `Quick test_out_of_bounds;
    Alcotest.test_case "shared staging with barrier" `Quick test_syncthreads_staging;
    Alcotest.test_case "hazard detection" `Quick test_hazard_detection;
    Alcotest.test_case "barrier divergence rejected" `Quick test_barrier_divergence_rejected;
    Alcotest.test_case "return guard" `Quick test_return_guard;
    Alcotest.test_case "schedule order" `Quick test_schedule_runs_in_order;
    Alcotest.test_case "timing: memory bound" `Quick test_timing_memory_bound;
    Alcotest.test_case "timing: monotone in bytes" `Quick test_timing_more_bytes_slower;
    Alcotest.test_case "timing: divergence penalty" `Quick test_timing_divergence_penalty;
    Alcotest.test_case "timing: latency term" `Quick test_timing_latency_term;
  ]

(* ------------------------------------------------------------------ *)
(* Dynamic usage observation (the pointer-aliasing pre-run, Section 7) *)
(* ------------------------------------------------------------------ *)

(* the host arrays one launch actually read and wrote, observed through
   the interpreter's access hook (which reports parameter names) *)
let dynamic_usage mem prog (l : launch) =
  let binding = bind_args (find_kernel prog l.l_kernel) l.l_args in
  let reads = ref [] and writes = ref [] in
  I.access_trace :=
    Some
      (fun ~write param _ ->
        match List.assoc_opt param binding with
        | Some (Arg_array host) -> if write then writes := host :: !writes else reads := host :: !reads
        | _ -> ());
  Fun.protect
    ~finally:(fun () -> I.access_trace := None)
    (fun () -> ignore (I.launch ~backend:I.Interpret mem prog l));
  (List.sort_uniq compare !reads, List.sort_uniq compare !writes)

let test_usage_observed () =
  let prog = Util.producer_consumer_program ~dims:(16, 8, 4) ~block:(8, 4, 1) () in
  let mem = Mem.create prog.p_arrays in
  Mem.init_seeded mem ~seed:9;
  let reads, writes = dynamic_usage mem prog (Util.launch_of prog "produce") in
  Alcotest.(check (list string)) "reads observed" [ "A" ] reads;
  Alcotest.(check (list string)) "writes observed" [ "B" ] writes

let test_usage_guarded_out () =
  (* an array bound to a parameter but never executed (guard always
     false) must NOT appear in the dynamic usage: the ground truth the
     paper's pre-run provides over static analysis *)
  let src =
    {|
__global__ void maybe(const double *A, const double *Z, double *B, int nx, int ny, int nz, double c) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    if (nx > 9999) {
      B[j * nx + i] = Z[j * nx + i];
    } else {
      B[j * nx + i] = c * A[j * nx + i];
    }
  }
}
|}
  in
  let k = Kft_cuda.Parse.kernel src in
  let dims = (16, 8, 4) in
  let prog =
    {
      p_name = "t";
      p_arrays = List.map (Util.arr3 dims) [ "A"; "Z"; "B" ];
      p_kernels = [ k ];
      p_schedule =
        [ Launch { l_kernel = "maybe"; l_domain = (16, 8, 1); l_block = (8, 4, 1);
                   l_args = Util.std_args dims [ "A"; "Z"; "B" ] 0.5 } ];
    }
  in
  let mem = Mem.create prog.p_arrays in
  let reads, writes = dynamic_usage mem prog (Util.launch_of prog "maybe") in
  Alcotest.(check (list string)) "only the taken branch reads" [ "A" ] reads;
  (* static analysis over-approximates: it reports Z as touched *)
  let static_reads, _ = Kft_ddg.Ddg.arrays_touched prog (Util.launch_of prog "maybe") in
  Alcotest.(check (list string)) "static over-approximation" [ "A"; "Z" ] (List.sort compare static_reads);
  Alcotest.(check (list string)) "writes observed" [ "B" ] writes

let usage_suite =
  [
    Alcotest.test_case "usage: reads/writes observed" `Quick test_usage_observed;
    Alcotest.test_case "usage: dynamic vs static" `Quick test_usage_guarded_out;
  ]

(* ------------------------------------------------------------------ *)
(* Expression semantics details                                        *)
(* ------------------------------------------------------------------ *)

let run_expr_kernel body_src =
  let src =
    Printf.sprintf
      {|
__global__ void e(const double *A, double *B, int nx, int ny, int nz, double c) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    %s
  }
}
|}
      body_src
  in
  let prog = one_kernel_prog src "e" [ "A"; "B" ] 2.0 in
  let mem = Mem.create prog.p_arrays in
  Mem.init_seeded mem ~seed:11;
  let a = Mem.get_array mem "A" in
  ignore (I.launch mem prog (Util.launch_of prog "e"));
  (a, Mem.get_array mem "B")

let test_math_builtins () =
  let a, b = run_expr_kernel "B[j * nx + i] = sqrt(fabs(A[j * nx + i])) + fmax(A[j * nx + i], 0.0);" in
  Array.iteri
    (fun i av ->
      if i < 16 * 8 then
        Util.check_float "sqrt/fabs/fmax" (sqrt (Float.abs av) +. Float.max av 0.0) b.(i))
    a

let test_ternary_and_intops () =
  let _, b = run_expr_kernel "B[j * nx + i] = (i % 3 == 0 && j / 2 < 2) ? 1.0 : 0.0;" in
  let nx = 16 in
  for j = 0 to 7 do
    for i = 0 to nx - 1 do
      let expect = if i mod 3 = 0 && j / 2 < 2 then 1.0 else 0.0 in
      Util.check_float "ternary/int ops" expect b.((j * nx) + i)
    done
  done

let test_division_by_zero_caught () =
  match run_expr_kernel "int z = 0; B[j * nx + i] = A[(j * nx + i) / z];" with
  | (_ : float array * float array) -> Alcotest.fail "expected error"
  | exception I.Sim_error _ -> ()

let test_copies_are_noops () =
  let prog = Util.producer_consumer_program ~dims:(16, 8, 4) ~block:(8, 4, 1) () in
  let prog =
    { prog with p_schedule = (Copy_to_device "A" :: prog.p_schedule) @ [ Copy_to_host "C" ] }
  in
  let mem = Mem.create prog.p_arrays in
  Mem.init_seeded mem ~seed:5;
  let results = I.run_schedule mem prog in
  Alcotest.(check int) "copies skipped, launches run" 2 (List.length results)

let semantics_suite =
  [
    Alcotest.test_case "math builtins" `Quick test_math_builtins;
    Alcotest.test_case "ternary and integer ops" `Quick test_ternary_and_intops;
    Alcotest.test_case "division by zero" `Quick test_division_by_zero_caught;
    Alcotest.test_case "memcpy markers are no-ops" `Quick test_copies_are_noops;
  ]

(* ------------------------------------------------------------------ *)
(* Block-parallel execution, affine precomputation, memory edge cases   *)
(* ------------------------------------------------------------------ *)

module E = Kft_engine.Engine

let run_at ?(jobs = 1) ?backend prog =
  let mem = Mem.create prog.Kft_cuda.Ast.p_arrays in
  Mem.init_seeded mem ~seed:17;
  let runs =
    if jobs <= 1 then I.run_schedule ?backend mem prog
    else
      E.with_engine ~jobs ~memo:false (fun e -> I.run_schedule ~engine:e ?backend mem prog)
  in
  (mem, List.map snd runs)

(* the tentpole determinism property: final memory and every stats field
   are bit-identical whatever the jobs setting and whichever backend
   runs — the compiled affine path is differentially tested against the
   plain reference interpreter *)
let test_block_parallel_determinism () =
  let prog = Util.producer_consumer_program ~dims:(32, 16, 8) ~block:(16, 4, 1) () in
  let ref_mem, ref_stats = run_at ~backend:I.Interpret prog in
  List.iter
    (fun (jobs, backend) ->
      let mem, stats = run_at ~jobs ~backend prog in
      let label = Printf.sprintf "jobs=%d backend=%s" jobs (I.backend_name backend) in
      Alcotest.(check bool) (label ^ ": memory bit-identical") true
        (Mem.equal_within ~tol:0.0 ref_mem mem);
      Alcotest.(check bool) (label ^ ": stats identical") true (ref_stats = stats))
    [ (1, I.Affine); (2, I.Interpret); (2, I.Affine); (4, I.Interpret); (4, I.Affine) ]

let test_unknown_array () =
  let mem = Mem.create [ Util.arr3 dims "A" ] in
  (match Mem.get mem "nope" with
  | (_ : Mem.buf) -> Alcotest.fail "expected Unknown_array"
  | exception Mem.Unknown_array name -> Alcotest.(check string) "get carries name" "nope" name);
  match Mem.dims mem "gone" with
  | (_ : int list) -> Alcotest.fail "expected Unknown_array"
  | exception Mem.Unknown_array name -> Alcotest.(check string) "dims carries name" "gone" name

let test_max_abs_diff_one_sided () =
  let mem1 = Mem.create [ Util.arr3 dims "A" ] in
  let mem2 = Mem.create [ Util.arr3 dims "A"; Util.arr3 dims "B" ] in
  (match Mem.max_abs_diff mem1 mem2 with
  | [ ("A", a); ("B", b) ] ->
      Util.check_float "shared array agrees" 0.0 a;
      Alcotest.(check bool) "one-sided array reports infinity" true (b = infinity)
  | _ -> Alcotest.fail "diff shape");
  Alcotest.(check bool) "one-sided array breaks equality" false
    (Mem.equal_within ~tol:1e12 mem1 mem2)

(* [Profiler.compare]: the output-verification verdict over two final
   memories, taken on the arrays common to both *)
let test_profiler_compare () =
  let seeded names =
    let m = Mem.create (List.map (Util.arr3 dims) names) in
    Mem.init_seeded m ~seed:3;
    m
  in
  let verdict = Alcotest.(result unit (list (pair string (float 0.0)))) in
  let a = seeded [ "A"; "B" ] and b = seeded [ "A"; "B" ] in
  Alcotest.check verdict "equal runs" (Ok ()) (Kft_sim.Profiler.compare ~tol:0.0 a b);
  (Mem.get a "B").{5} <- 0.5;
  (Mem.get b "B").{5} <- 0.25;
  Alcotest.check verdict "a move beyond tol is reported" (Error [ ("B", 0.25) ])
    (Kft_sim.Profiler.compare ~tol:0.1 a b);
  Alcotest.check verdict "a move of at most tol passes" (Ok ())
    (Kft_sim.Profiler.compare ~tol:0.25 a b);
  (* a transformation may add or drop temporaries: one-sided arrays are
     ignored in both directions *)
  let c = seeded [ "A"; "B"; "T" ] in
  (Mem.get c "B").{5} <- 0.5;
  Alcotest.check verdict "one-sided array ignored" (Ok ()) (Kft_sim.Profiler.compare ~tol:0.0 a c);
  Alcotest.check verdict "one-sided array ignored (reversed)" (Ok ())
    (Kft_sim.Profiler.compare ~tol:0.0 c a);
  List.iter Mem.release [ a; b; c ]

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_affine_rewrite_structure () =
  let k =
    Kft_cuda.Parse.kernel
      (Util.stencil_src ~name:"st" ~src:"A" ~dst:"B" ~margin:1 ~threed:true)
  in
  let k' = Kft_sim.Affine.rewrite_kernel k in
  Alcotest.(check bool) "original has no __aff" false (contains (Kft_cuda.Pp.kernel k) "__aff");
  Alcotest.(check bool) "rewrite introduces __aff induction variables" true
    (contains (Kft_cuda.Pp.kernel k') "__aff")

(* ------------------------------------------------------------------ *)
(* Off-heap substrate: snapshots, pooling, lifetime edge cases          *)
(* ------------------------------------------------------------------ *)

let test_zero_length_arrays () =
  (* a zero-cell array is legal: zero-length view, diffs agree, seeding
     is a no-op, and it coexists with non-empty neighbours in the arena *)
  let z = { a_name = "Z"; a_elem_ty = Double; a_dims = [ 0; 4; 4 ] } in
  let mem1 = Mem.create [ z; Util.arr3 dims "A" ] in
  let mem2 = Mem.create [ z; Util.arr3 dims "A" ] in
  Mem.init_seeded mem1 ~seed:3;
  Mem.init_seeded mem2 ~seed:3;
  Alcotest.(check int) "zero cells" 0 (Bigarray.Array1.dim (Mem.get mem1 "Z"));
  Alcotest.(check bool) "dims kept" true (Mem.dims mem1 "Z" = [ 0; 4; 4 ]);
  Alcotest.(check bool) "equal incl. empty array" true (Mem.equal_within ~tol:0.0 mem1 mem2);
  (match List.assoc_opt "Z" (Mem.max_abs_diff mem1 mem2) with
  | Some d -> Util.check_float "empty array diff is 0" 0.0 d
  | None -> Alcotest.fail "Z missing from diff");
  let s = Mem.snapshot mem1 in
  Alcotest.(check bool) "snapshot round-trips empty arrays" true
    (Mem.equal_within ~tol:0.0 mem1 (Mem.restore s))

let test_snapshot_restore_bit_identity =
  (* property: snapshot -> arbitrary mutations -> restore yields a
     memory bit-identical to the capture, and independent of the source *)
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"snapshot/mutate/restore is bit-exact" ~count:100
       QCheck.(
         triple small_nat (list (pair small_nat (float_range (-1e6) 1e6))) small_nat)
       (fun (seed, writes, extra) ->
         let decls = [ Util.arr3 dims "A"; Util.arr3 dims "B" ] in
         let mem = Mem.create decls in
         Mem.init_seeded mem ~seed;
         let s = Mem.snapshot mem in
         let reference = Mem.get_array mem "A" in
         (* mutate the source after capture: the snapshot must not alias *)
         List.iter
           (fun (i, v) ->
             let b = Mem.get mem (if i mod 2 = 0 then "A" else "B") in
             b.{i mod cells} <- v)
           ((extra mod cells, 1e9) :: writes);
         let r1 = Mem.restore s and r2 = Mem.restore s in
         let a1 = Mem.get_array r1 "A" in
         (* restored contents equal the capture exactly *)
         let eq = a1 = reference in
         (* restores are independent memories: mutating one leaves the
            other (and the snapshot) untouched *)
         (Mem.get r1 "A").{0} <- -12345.0;
         let r3 = Mem.restore s in
         let indep = Mem.get_array r2 "A" = reference && Mem.get_array r3 "A" = reference in
         Mem.release mem;
         Mem.release r1;
         Mem.release r2;
         Mem.release r3;
         eq && indep))

let test_release_lifecycle () =
  let mem = Mem.create [ Util.arr3 dims "A" ] in
  Mem.release mem;
  (match Mem.get mem "A" with
  | (_ : Mem.buf) -> Alcotest.fail "expected use-after-release failure"
  | exception Invalid_argument _ -> ());
  (match Mem.snapshot mem with
  | (_ : Mem.snapshot) -> Alcotest.fail "expected snapshot-after-release failure"
  | exception Invalid_argument _ -> ());
  match Mem.release mem with
  | () -> Alcotest.fail "expected double-release failure"
  | exception Invalid_argument _ -> ()

let test_pool_recycles () =
  let decls = [ Util.arr3 dims "A"; Util.arr3 dims "B" ] in
  let s0 = Mem.Pool.stats () in
  let m1 = Mem.create decls in
  Mem.init_seeded m1 ~seed:9;
  Mem.release m1;
  (* same-size create must recycle the arena just released... *)
  let m2 = Mem.create decls in
  let s1 = Mem.Pool.stats () in
  Alcotest.(check bool) "recycle is a pool hit" true (s1.Mem.Pool.hits > s0.Mem.Pool.hits);
  (* ...and recycled arenas still honour the zero-init contract *)
  Alcotest.(check bool) "recycled arena zeroed" true
    (Array.for_all (fun v -> v = 0.0) (Mem.get_array m2 "A"));
  Mem.release m2;
  Alcotest.(check bool) "requests counted" true (s1.Mem.Pool.requests >= s0.Mem.Pool.requests + 2)

let parallel_suite =
  [
    Alcotest.test_case "determinism across jobs x affine" `Quick test_block_parallel_determinism;
    Alcotest.test_case "unknown array raises" `Quick test_unknown_array;
    Alcotest.test_case "one-sided diff is infinite" `Quick test_max_abs_diff_one_sided;
    Alcotest.test_case "profiler compare verdicts" `Quick test_profiler_compare;
    Alcotest.test_case "affine rewrite structure" `Quick test_affine_rewrite_structure;
    Alcotest.test_case "zero-length arrays" `Quick test_zero_length_arrays;
    test_snapshot_restore_bit_identity;
    Alcotest.test_case "release lifecycle" `Quick test_release_lifecycle;
    Alcotest.test_case "arena pool recycles" `Quick test_pool_recycles;
  ]

(* ------------------------------------------------------------------ *)
(* Execution backends: the Interpret oracle and the compiled Affine    *)
(* path, with Auto and Vector as aliases of Affine                     *)
(* ------------------------------------------------------------------ *)

let test_backend_names () =
  Alcotest.(check (list string)) "names" [ "auto"; "interp"; "affine"; "vector" ]
    (List.map I.backend_name [ I.Auto; I.Interpret; I.Affine; I.Vector ]);
  (* the aliases execute the affine path: bit-identical memory and stats *)
  List.iter
    (fun prog ->
      let ref_mem, ref_stats = run_at ~backend:I.Affine prog in
      List.iter
        (fun (jobs, b) ->
          let mem, stats = run_at ~jobs ~backend:b prog in
          let label =
            Printf.sprintf "%s@jobs=%d on %s" (I.backend_name b) jobs prog.p_name
          in
          Alcotest.(check bool) (label ^ " memory") true (Mem.equal_within ~tol:0.0 ref_mem mem);
          Alcotest.(check bool) (label ^ " stats") true (stats = ref_stats))
        [ (1, I.Auto); (4, I.Auto); (1, I.Vector); (4, I.Vector) ])
    [ Util.quickstart_program (); Util.producer_consumer_program () ]

(* a kernel whose blocks do uneven work: a thread-dependent [return]
   retires a different number of threads in each block, and a divergent
   guard splits the flops and the reads, so every per-chunk counter
   differs between chunks *)
let ragged_program () =
  let src =
    {|
__global__ void ragged(const double *A, double *B, int nx, int ny, int nz, double c) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i + 2 * j >= nx) {
    return;
  }
  if (i % 3 == 0) {
    B[j * nx + i] = c * A[j * nx + i] + A[j * nx + i] * A[j * nx + i];
  } else {
    B[j * nx + i] = c * A[j * nx + i];
  }
}
|}
  in
  let prog = one_kernel_prog src "ragged" [ "A"; "B" ] 3.0 in
  let small_blocks = function
    | Launch l -> Launch { l with l_block = (4, 2, 1) }
    | s -> s
  in
  { prog with p_schedule = List.map small_blocks prog.p_schedule }

(* forcing the chunk count exercises the chunk merge even on a
   single-core host (where the adaptive policy always picks 1 chunk):
   2 and 3 chunks, and one chunk per block (the override is clamped to
   the block count) *)
let test_chunked_merge () =
  (match run_at ~backend:I.Interpret (ragged_program ()) with
  | _, [ st ] ->
      Alcotest.(check bool) "ragged: some threads return" true
        (st.I.threads_active < st.I.threads_launched);
      Alcotest.(check bool) "ragged: divergent guards" true (st.I.divergent_warp_cond_evals > 0)
  | _ -> Alcotest.fail "ragged: one launch expected");
  List.iter
    (fun prog ->
      let ref_mem, ref_stats = run_at ~backend:I.Interpret prog in
      List.iter
        (fun (chunks, what) ->
          Fun.protect
            ~finally:(fun () -> I.chunk_override := None)
            (fun () ->
              I.chunk_override := Some chunks;
              List.iter
                (fun backend ->
                  let mem, stats = run_at ~jobs:2 ~backend prog in
                  let label =
                    Printf.sprintf "%s %s on %s" (I.backend_name backend) what prog.p_name
                  in
                  Alcotest.(check bool) (label ^ " memory") true
                    (Mem.equal_within ~tol:0.0 ref_mem mem);
                  Alcotest.(check bool) (label ^ " stats") true (stats = ref_stats))
                [ I.Interpret; I.Affine ]))
        [ (2, "2-chunk merge"); (3, "3-chunk merge"); (max_int, "chunk-per-block merge") ])
    [ Util.quickstart_program (); ragged_program () ]

(* out-of-bounds faults must surface identically (same exception, same
   message, lowest-failing-block semantics) whichever backend executes *)
let test_error_parity () =
  let src =
    {|
__global__ void oob(const double *A, double *B, int nx, int ny, int nz, double c) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  B[i + 100000] = c * A[0];
}
|}
  in
  let prog = one_kernel_prog src "oob" [ "A"; "B" ] 1.0 in
  let l = Util.launch_of prog "oob" in
  let msg backend =
    let mem = Mem.create prog.p_arrays in
    match I.launch ~backend mem prog l with
    | (_ : I.stats) -> Alcotest.fail "expected Sim_error"
    | exception I.Sim_error { kernel; message } -> (kernel, message)
  in
  Alcotest.(check bool) "same Sim_error from both backends" true
    (msg I.Interpret = msg I.Affine)

(* the profiler sees the same byte counts (and all other stats) from
   every backend on the quickstart chain *)
let test_profiler_backend_agreement () =
  let prog = Util.quickstart_program () in
  let profiles backend =
    (Kft_sim.Profiler.profile ~backend Util.device prog).Kft_sim.Profiler.profiles
  in
  let stats_of ps =
    List.map
      (fun (p : Kft_sim.Profiler.kernel_profile) ->
        ( p.kernel,
          p.stats.I.global_read_bytes,
          p.stats.I.global_write_bytes,
          p.stats.I.flops,
          p.stats.I.warp_cond_evals ))
      ps
  in
  let reference = stats_of (profiles I.Interpret) in
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (Printf.sprintf "profiler byte counts agree on backend %s" (I.backend_name b))
        true
        (stats_of (profiles b) = reference))
    [ I.Affine; I.Auto; I.Vector ]

(* the trace records the path that actually ran, so the aliases show up
   as "affine" *)
let test_trace_backend () =
  let prog = Util.quickstart_program () in
  let rendered backend =
    let trace = Kft_trace.Trace.create "t" in
    let mem = Mem.create prog.p_arrays in
    Mem.init_seeded mem ~seed:42;
    ignore (I.launch ?backend ~trace mem prog (Util.launch_of prog "diffuse"));
    Kft_trace.Trace.render_json trace
  in
  let records backend name =
    Alcotest.(check bool)
      (Printf.sprintf "%s recorded as %s"
         (Option.fold ~none:"default" ~some:I.backend_name backend) name)
      true
      (contains (rendered backend) (Printf.sprintf "\"backend\":\"%s\"" name))
  in
  records None "affine";
  records (Some I.Affine) "affine";
  records (Some I.Interpret) "interp";
  records (Some I.Auto) "affine";
  records (Some I.Vector) "affine"

let test_memory_snapshot () =
  let mem = Util.run_to_memory (Util.quickstart_program ()) in
  let snap = Mem.snapshot mem in
  let r1 = Mem.restore snap in
  Alcotest.(check bool) "restore reproduces contents" true
    (Mem.equal_within ~tol:0.0 mem r1);
  Alcotest.(check bool) "names preserved" true (Mem.names mem = Mem.names r1);
  Alcotest.(check bool) "dims preserved" true
    (List.for_all (fun n -> Mem.dims mem n = Mem.dims r1 n) (Mem.names mem));
  (* restores are independent: mutating one does not leak into the
     snapshot or into a later restore *)
  (Mem.get r1 "U").{0} <- 1234.5;
  let r2 = Mem.restore snap in
  Alcotest.(check bool) "snapshot unaffected by mutation" true
    (Mem.equal_within ~tol:0.0 mem r2)

let backend_suite =
  [
    Alcotest.test_case "backend names and aliases" `Quick test_backend_names;
    Alcotest.test_case "chunked ordered merge" `Quick test_chunked_merge;
    Alcotest.test_case "runtime error parity" `Quick test_error_parity;
    Alcotest.test_case "profiler agrees across backends" `Quick test_profiler_backend_agreement;
    Alcotest.test_case "executed backend recorded in trace" `Quick test_trace_backend;
    Alcotest.test_case "memory snapshot/restore" `Quick test_memory_snapshot;
  ]
