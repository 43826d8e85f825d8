(* Whole-grid vectorized execution backend: eligibility, backend
   selection/dispatch, bit-identity against the reference interpreter,
   error parity, chunked-merge determinism, the profiler byte-count
   contract, memory snapshots and the snapshot-backed profile cache. *)

open Kft_cuda.Ast
module Mem = Kft_sim.Memory
module I = Kft_sim.Interp
module V = Kft_sim.Vector
module Engine = Kft_engine.Engine

let dims = (16, 8, 4)

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

let sync_src =
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

let return_src =
  {|
__global__ void ret(const double *A, double *B, int nx, int ny, int nz, double c) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i >= nx) {
    return;
  }
  B[i] = c * A[i];
}
|}

let test_eligibility () =
  let q = Util.quickstart_program () in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (k ^ " is vector-eligible") true
        (V.eligible q (Util.launch_of q k)))
    [ "diffuse"; "smooth"; "relax" ];
  let pc = Util.producer_consumer_program () in
  Alcotest.(check bool) "produce eligible" true (V.eligible pc (Util.launch_of pc "produce"));
  let sync_prog = one_kernel_prog sync_src "stage" [ "A"; "B" ] 2.0 in
  Alcotest.(check bool) "barrier kernel ineligible" false
    (V.eligible sync_prog (Util.launch_of sync_prog "stage"));
  let ret_prog = one_kernel_prog return_src "ret" [ "A"; "B" ] 2.0 in
  Alcotest.(check bool) "early-return kernel ineligible" false
    (V.eligible ret_prog (Util.launch_of ret_prog "ret"))

let test_backend_selection () =
  let q = Util.quickstart_program () in
  let l = Util.launch_of q "diffuse" in
  Alcotest.(check string) "auto picks vector for eligible launches" "vector"
    (I.backend_name (I.selected_backend ~backend:I.Auto q l));
  Alcotest.(check string) "explicit interp honoured" "interp"
    (I.backend_name (I.selected_backend ~backend:I.Interpret q l));
  Alcotest.(check string) "explicit affine honoured" "affine"
    (I.backend_name (I.selected_backend ~backend:I.Affine q l));
  Alcotest.(check string) "no backend defers to affine flag" "interp"
    (I.backend_name (I.selected_backend ~affine:false q l));
  let sync_prog = one_kernel_prog sync_src "stage" [ "A"; "B" ] 2.0 in
  Alcotest.(check string) "auto falls back to affine on ineligible launches" "affine"
    (I.backend_name (I.selected_backend ~backend:I.Auto sync_prog (Util.launch_of sync_prog "stage")));
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (I.backend_name b ^ " round-trips") true
        (I.backend_of_string (I.backend_name b) = Some b))
    [ I.Auto; I.Interpret; I.Affine; I.Vector ];
  Alcotest.(check bool) "unknown name rejected" true (I.backend_of_string "cuda" = None)

let run_schedule ?engine ?affine ?backend prog =
  let mem = Mem.create prog.p_arrays in
  Mem.init_seeded mem ~seed:42;
  let runs = I.run_schedule ?engine ?affine ?backend mem prog in
  (mem, List.map snd runs)

let test_bit_identity () =
  List.iter
    (fun prog ->
      let ref_mem, ref_stats = run_schedule ~affine:false prog in
      Engine.with_engine ~jobs:4 ~memo:false (fun e ->
          List.iter
            (fun (label, engine, backend) ->
              let mem, stats = run_schedule ?engine ~backend prog in
              Alcotest.(check bool)
                (Printf.sprintf "%s memory on %s" label prog.p_name)
                true
                (Mem.equal_within ~tol:0.0 ref_mem mem);
              Alcotest.(check bool)
                (Printf.sprintf "%s stats on %s" label prog.p_name)
                true (stats = ref_stats))
            [
              ("vector@seq", None, I.Vector);
              ("vector@jobs4", Some e, I.Vector);
              ("auto@seq", None, I.Auto);
              ("auto@jobs4", Some e, I.Auto);
            ]))
    [ Util.quickstart_program (); Util.producer_consumer_program () ]

(* forcing the chunk count exercises the ordered per-block merge even on
   a single-core host (where the adaptive policy always picks 1 chunk) *)
let test_chunked_merge () =
  let prog = Util.quickstart_program () in
  let ref_mem, ref_stats = run_schedule ~affine:false prog in
  Fun.protect
    ~finally:(fun () -> I.chunk_override := None)
    (fun () ->
      I.chunk_override := Some 3;
      Engine.with_engine ~jobs:2 ~memo:false (fun e ->
          List.iter
            (fun (label, backend) ->
              let mem, stats = run_schedule ~engine:e ?backend prog in
              Alcotest.(check bool) (label ^ " memory") true
                (Mem.equal_within ~tol:0.0 ref_mem mem);
              Alcotest.(check bool) (label ^ " stats") true (stats = ref_stats))
            [
              ("vector 3-chunk merge", Some I.Vector);
              ("lockstep 3-chunk merge", None);
            ]))

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
  Alcotest.(check bool) "oob kernel is vector-eligible" true (V.eligible prog l);
  let msg backend =
    let mem = Mem.create prog.p_arrays in
    match I.launch ?backend mem prog l with
    | (_ : I.stats) -> Alcotest.fail "expected Sim_error"
    | exception I.Sim_error { kernel; message } -> (kernel, message)
  in
  Alcotest.(check bool) "same Sim_error from both backends" true
    (msg (Some I.Vector) = msg None)

let test_usage_parity () =
  let prog = Util.producer_consumer_program () in
  let usage backend =
    let mem = Mem.create prog.p_arrays in
    Mem.init_seeded mem ~seed:42;
    snd (I.launch_with_usage ?backend mem prog (Util.launch_of prog "produce"))
  in
  Alcotest.(check bool) "dynamic usage identical" true
    (usage (Some I.Vector) = usage None)

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
    [ I.Affine; I.Vector; I.Auto ]

let test_trace_backend () =
  let prog = Util.quickstart_program () in
  let rendered backend =
    let trace = Kft_trace.Trace.create "t" in
    let mem = Mem.create prog.p_arrays in
    Mem.init_seeded mem ~seed:42;
    ignore (I.launch ?backend ~trace mem prog (Util.launch_of prog "diffuse"));
    Kft_trace.Trace.render_json trace
  in
  Alcotest.(check bool) "vector backend recorded" true
    (Util.contains (rendered (Some I.Vector)) "vector");
  Alcotest.(check bool) "affine backend recorded" true
    (Util.contains (rendered None) "affine");
  Alcotest.(check bool) "interp backend recorded" true
    (Util.contains (rendered (Some I.Interpret)) "interp")

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

let test_sim_cache_replay () =
  let prog = Util.quickstart_program () in
  let cache = Kft_metadata.Metadata.Sim_cache.create () in
  let r1 = Kft_metadata.Metadata.profile ~cache Util.device prog in
  let r2 = Kft_metadata.Metadata.profile ~cache Util.device prog in
  let s = Kft_metadata.Metadata.Sim_cache.stats cache in
  Alcotest.(check int) "one miss" 1 s.Engine.Cache.misses;
  Alcotest.(check int) "one hit" 1 s.Engine.Cache.hits;
  Alcotest.(check bool) "replayed memory bit-identical" true
    (Mem.equal_within ~tol:0.0 r1.Kft_sim.Profiler.memory r2.Kft_sim.Profiler.memory);
  Alcotest.(check bool) "replayed stats bit-identical" true
    (List.for_all2
       (fun (a : Kft_sim.Profiler.kernel_profile) (b : Kft_sim.Profiler.kernel_profile) ->
         a.stats = b.stats)
       r1.profiles r2.profiles);
  (* a replay is a private copy: corrupting it cannot poison the cache *)
  (Mem.get r2.Kft_sim.Profiler.memory "U").{0} <- -999.0;
  (List.hd r2.profiles).stats.I.global_read_bytes <- 0;
  let r3 = Kft_metadata.Metadata.profile ~cache Util.device prog in
  Alcotest.(check bool) "cache unaffected by caller mutation" true
    (Mem.equal_within ~tol:0.0 r1.Kft_sim.Profiler.memory r3.Kft_sim.Profiler.memory
    && (List.hd r3.profiles).stats = (List.hd r1.profiles).stats)

(* the prepare memo outlives every run: it must not pin the memory a
   launch ran on *)
let memo_probe = Weak.create 1

let[@inline never] run_vector_once () =
  let prog = Util.producer_consumer_program () in
  let mem = Mem.create prog.p_arrays in
  Mem.init_seeded mem ~seed:3;
  let runs = I.run_schedule ~backend:I.Vector mem prog in
  Weak.set memo_probe 0 (Some (Mem.get mem "B"));
  List.length runs

let test_memo_releases_memory () =
  Alcotest.(check int) "both launches ran" 2 (run_vector_once ());
  Gc.full_major ();
  Alcotest.(check bool) "device array collected" false (Weak.check memo_probe 0)

let suite =
  [
    Alcotest.test_case "eligibility fragment" `Quick test_eligibility;
    Alcotest.test_case "backend selection and names" `Quick test_backend_selection;
    Alcotest.test_case "bit-identity vs reference interpreter" `Quick test_bit_identity;
    Alcotest.test_case "chunked ordered merge" `Quick test_chunked_merge;
    Alcotest.test_case "runtime error parity" `Quick test_error_parity;
    Alcotest.test_case "dynamic usage parity" `Quick test_usage_parity;
    Alcotest.test_case "profiler agrees across backends" `Quick test_profiler_backend_agreement;
    Alcotest.test_case "executed backend recorded in trace" `Quick test_trace_backend;
    Alcotest.test_case "memory snapshot/restore" `Quick test_memory_snapshot;
    Alcotest.test_case "profile cache replays snapshots" `Quick test_sim_cache_replay;
    Alcotest.test_case "prepare memo does not pin device memory" `Quick test_memo_releases_memory;
  ]
