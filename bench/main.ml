(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (see DESIGN.md section 2 and EXPERIMENTS.md).

   Usage:
     bench/main.exe                 -- run every paper experiment
     bench/main.exe table1 fig4 ... -- run selected experiments
     bench/main.exe smoke           -- tier-1 rot and determinism guards
     bench/main.exe paper           -- the paper's 500 x 100 search budget

   Pipeline and layer performance is measured by the repository
   benchmark (e2ebench/); the deterministic per-app work counters are
   pinned exactly by test/test_golden.ml.

   One transformation per (application, configuration) pair is computed
   lazily and cached, so tables and figures that share a configuration
   reuse the run. *)

module F = Kft_framework.Framework
module Trace = Kft_trace.Trace
module Gga = Kft_gga.Gga
module Engine = Kft_engine.Engine
module Fusion = Kft_codegen.Fusion
module Apps = Kft_apps.Apps

let device = Apps.bench_device

(* engine shared by all cached runs; width set by -j (default 4, the
   number of GGA worker domains). Search results are bit-identical at
   any width, so -j never changes a reported number, only wall time. *)
let jobs = ref 4

let engine =
  let e = ref None in
  fun () ->
    match !e with
    | Some engine -> engine
    | None ->
        let engine = Engine.create ~jobs:!jobs ~memo:true () in
        at_exit (fun () -> Engine.shutdown engine);
        e := Some engine;
        engine

(* GGA budget: the paper runs 500 generations x 100 individuals on 8
   Xeon cores for ~11 minutes; the scaled-down default keeps the whole
   harness interactive, and the [paper] experiment restores the full
   500 x 100 budget (tractable now that evaluation is pooled+memoized). *)
let gga ?(generations = 120) ?(population = 40) ?(fission = true) () =
  { Gga.default_params with generations; population; fission_enabled = fission }

type mode =
  | Fusion_only
  | Fission_fusion
  | Full_auto  (** fission + fusion + thread-block tuning *)
  | Manual  (** the previous work's hand fusion: expert codegen, no fission, no tuning *)
  | Guided  (** programmer-guided: expert codegen fixes + tuning + fission *)
  | Guided_filtered  (** guided + expert target filtering (Figure 8) *)
  | Budget40 of [ `Auto | `Filtered | `None_ ]
      (** Figure 8 / convergence runs: a constrained GGA budget (40
          generations) where search-space pollution is visible *)
  | Paper_budget
      (** the paper's full search budget: 500 generations x 100
          individuals (Section 6.1.2), full automation *)

let mode_name = function
  | Fusion_only -> "fusion"
  | Fission_fusion -> "fission+fusion"
  | Full_auto -> "fission+fusion+tuning"
  | Manual -> "manual"
  | Guided -> "guided"
  | Guided_filtered -> "guided+filter"
  | Budget40 `Auto -> "auto@40gen"
  | Budget40 `Filtered -> "manual-filter@40gen"
  | Budget40 `None_ -> "no-filter@40gen"
  | Paper_budget -> "paper@500x100"

(* one profile cache shared by every transform of this process: the
   paper modes re-transform the same apps, so their source programs (and
   any transformed program two modes agree on) are simulated once *)
let sim_cache = Kft_metadata.Metadata.Sim_cache.create ()

let config_of_mode mode =
  let base = { F.default_config with device; sim_cache = Some sim_cache } in
  match mode with
  | Fusion_only ->
      { base with
        gga_params = gga ~fission:false ();
        codegen_options = { Fusion.auto_options with tune_blocks = false } }
  | Fission_fusion ->
      { base with
        gga_params = gga ();
        codegen_options = { Fusion.auto_options with tune_blocks = false } }
  | Full_auto -> { base with gga_params = gga () }
  | Manual ->
      { base with
        gga_params = gga ~fission:false ();
        codegen_options = Fusion.manual_options }
  | Guided ->
      { base with
        gga_params = gga ();
        codegen_options = { Fusion.manual_options with tune_blocks = true } }
  | Guided_filtered ->
      { base with
        gga_params = gga ();
        filter_mode = F.Manual;
        codegen_options = { Fusion.manual_options with tune_blocks = true } }
  | Budget40 f ->
      { base with
        gga_params = gga ~generations:40 ();
        filter_mode =
          (match f with `Auto -> F.Automated | `Filtered -> F.Manual | `None_ -> F.No_filtering) }
  | Paper_budget -> { base with gga_params = gga ~generations:500 ~population:100 () }

(* ------------------------------------------------------------------ *)
(* Cached transformation runs                                          *)
(* ------------------------------------------------------------------ *)

type run = { report : F.report; wall_s : float }

let cache : (string * mode, run) Hashtbl.t = Hashtbl.create 64

let apps = lazy (Apps.all ())

let app name = List.find (fun (a : Apps.app) -> a.app_name = name) (Lazy.force apps)

let run_app (a : Apps.app) mode =
  match Hashtbl.find_opt cache (a.app_name, mode) with
  | Some r -> r
  | None ->
      Printf.eprintf "[bench] transforming %-12s (%s)...\n%!" a.app_name (mode_name mode);
      let t0 = Unix.gettimeofday () in
      let report = F.transform ~config:(config_of_mode mode) ~engine:(engine ()) a.program in
      let wall_s = Unix.gettimeofday () -. t0 in
      (match report.verified with
      | Ok () -> ()
      | Error diffs ->
          Printf.eprintf "[bench] WARNING: %s/%s failed verification on %d arrays\n%!"
            a.app_name (mode_name mode) (List.length diffs));
      let r = { report; wall_s } in
      Hashtbl.replace cache (a.app_name, mode) r;
      r

let all_app_names = [ "SCALE-LES"; "HOMME"; "Fluam"; "MITgcm"; "AWP-ODC-GPU"; "B-CALM" ]

let manual_reference_apps = [ "SCALE-LES"; "HOMME" ]

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let sharing_sets (r : F.report) =
  (* distinct sets of kernels sharing an array (the paper's "array
     sharing sets": the enumeration of possible reuse combinations) *)
  let sets = Hashtbl.create 64 in
  let users : (string, string list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (o : Kft_metadata.Metadata.ops_entry) ->
      List.iter
        (fun (a : Kft_metadata.Metadata.array_op) ->
          let cur = Option.value ~default:[] (Hashtbl.find_opt users a.array) in
          Hashtbl.replace users a.array (o.o_kernel :: cur))
        o.arrays)
    r.metadata.operations;
  Hashtbl.iter
    (fun _ kernels ->
      let s = List.sort_uniq compare kernels in
      if List.length s >= 2 then Hashtbl.replace sets s ())
    users;
  Hashtbl.length sets

let table1 () =
  print_endline "== Table 1: application attributes and effect of automated transformation ==";
  print_endline
    "application   kernels  arrays  targets  new-kernels  fissions/gen  sharing-sets  time(s)";
  List.iter
    (fun name ->
      let a = app name in
      let { report = r; wall_s } = run_app a Full_auto in
      let targets = List.length (List.filter (fun (t : F.target_info) -> t.eligible) r.targets) in
      let new_kernels =
        List.length
          (List.filter
             (fun (rep : Kft_codegen.Codegen.kernel_report) ->
               List.exists
                 (fun m ->
                   List.exists
                     (fun (t : F.target_info) -> t.eligible && t.invocation.inv_kernel = m)
                     r.targets)
                 rep.members)
             r.codegen.reports)
      in
      let fissions_per_gen =
        match r.gga with Some g -> g.avg_fissions_per_generation | None -> 0.0
      in
      Printf.printf "%-13s %7d %7d %8d %12d %13.3f %13d %8.1f\n" name
        (List.length a.program.p_kernels)
        (List.length a.program.p_arrays)
        targets new_kernels fissions_per_gen (sharing_sets r) wall_s)
    all_app_names;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Table 2                                                             *)
(* ------------------------------------------------------------------ *)

let table2 () =
  print_endline "== Table 2: tuning thread block size for new kernels ==";
  print_endline "application   fusion-output-kernels  tuned  avg-occ-before  avg-occ-after";
  List.iter
    (fun name ->
      let { report = r; _ } = run_app (app name) Full_auto in
      let fused =
        List.filter
          (fun (rep : Kft_codegen.Codegen.kernel_report) -> List.length rep.members > 1)
          r.codegen.reports
      in
      let tuned = List.filter (fun (rep : Kft_codegen.Codegen.kernel_report) -> rep.tuned) fused in
      let avg f = function
        | [] -> 0.0
        | l -> List.fold_left (fun acc x -> acc +. f x) 0.0 l /. float_of_int (List.length l)
      in
      Printf.printf "%-13s %21d %6d %15.2f %14.2f\n" name (List.length fused)
        (List.length tuned)
        (avg (fun (rep : Kft_codegen.Codegen.kernel_report) -> rep.occupancy_before) fused)
        (avg (fun (rep : Kft_codegen.Codegen.kernel_report) -> rep.occupancy_after) fused))
    all_app_names;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Figures 4 and 5: speedups                                           *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  print_endline "== Figure 4: speedups, automated transformation ==";
  print_endline "application   fusion  fission+fusion  +tuning  manual";
  List.iter
    (fun name ->
      let a = app name in
      let s mode = (run_app a mode).report.speedup in
      let manual =
        if List.mem name manual_reference_apps then Printf.sprintf "%6.3f" (s Manual) else "     -"
      in
      Printf.printf "%-13s %6.3f %15.3f %8.3f  %s\n" name (s Fusion_only) (s Fission_fusion)
        (s Full_auto) manual)
    all_app_names;
  print_newline ()

let fig5 () =
  print_endline "== Figure 5: speedups, programmer-guided transformation ==";
  print_endline "application   guided  guided+filter  manual";
  List.iter
    (fun name ->
      let a = app name in
      let s mode = (run_app a mode).report.speedup in
      let manual =
        if List.mem name manual_reference_apps then Printf.sprintf "%6.3f" (s Manual) else "     -"
      in
      Printf.printf "%-13s %6.3f %14.3f  %s\n" name (s Guided) (s Guided_filtered) manual)
    all_app_names;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Figures 6 and 7: per-kernel runtimes, auto vs hand codegen          *)
(* ------------------------------------------------------------------ *)

(* the hand-fusion recommendations (the expert's groups, searched under
   the expert codegen's feasibility) regenerated under the automated
   codegen: the paper's Figures 6/7 compare the auto-generated kernels
   against the manually written ones for the same fusions. Groups the
   automated generator cannot implement fall back to unfused members,
   which is exactly the "shared data was never reused" failure mode. *)
let per_kernel_comparison name =
  let a = app name in
  let manual = (run_app a Guided).report in
  let hooks = { F.no_hooks with amend_solution = (fun _ -> manual.solution_groups) } in
  let config =
    {
      (config_of_mode Full_auto) with
      codegen_options = { Fusion.auto_options with tune_blocks = false };
      gga_params = gga ~generations:1 ();
    }
  in
  let auto = F.transform ~config ~hooks ~engine:(engine ()) a.program in
  let time_of (r : F.report) kernel =
    List.fold_left
      (fun acc (p : Kft_sim.Profiler.kernel_profile) ->
        if p.kernel = kernel then acc +. p.timing.runtime_us else acc)
      0.0 r.transformed_run.profiles
  in
  (* for each expert group, the automated side is the set of new kernels
     whose members are contained in it (a single fused kernel, or the
     unfused members after a fallback) *)
  List.filter_map
    (fun (rep : Kft_codegen.Codegen.kernel_report) ->
      if List.length rep.members < 2 then None
      else
        let auto_time =
          List.fold_left
            (fun acc (rep' : Kft_codegen.Codegen.kernel_report) ->
              if List.for_all (fun m -> List.mem m rep.members) rep'.members then
                acc +. time_of auto rep'.new_kernel
              else acc)
            0.0 auto.codegen.reports
        in
        Some (rep.new_kernel, rep.members, auto_time, time_of manual rep.new_kernel))
    manual.codegen.reports

let print_per_kernel title rows =
  print_endline title;
  print_endline "kernel    members                                  auto(us)  manual(us)  ratio";
  List.iter
    (fun (k, members, t_auto, t_manual) ->
      Printf.printf "%-9s %-40s %8.2f %10.2f %7.2f\n" k
        (String.concat "," members)
        t_auto t_manual
        (if t_manual > 0.0 then t_auto /. t_manual else 0.0))
    rows;
  let tot f = List.fold_left (fun acc (_, _, a, m) -> acc +. f (a, m)) 0.0 rows in
  Printf.printf "total: auto %.2f us, manual %.2f us\n\n" (tot fst) (tot snd)

let fig6 () =
  print_per_kernel
    "== Figure 6: SCALE-LES per-kernel runtime, auto- vs hand-generated code =="
    (per_kernel_comparison "SCALE-LES")

let fig7 () =
  print_per_kernel "== Figure 7: HOMME per-kernel runtime, auto- vs hand-generated code =="
    (per_kernel_comparison "HOMME")

(* ------------------------------------------------------------------ *)
(* Figure 8: automated vs manual target filtering                      *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  print_endline "== Figure 8: speedup with automated vs manual target filtering ==";
  print_endline "   (GGA budget constrained to 40 generations, where convergence matters)";
  print_endline "application   automated  manual-filter  targets(auto)  targets(manual)";
  List.iter
    (fun name ->
      let a = app name in
      let auto = (run_app a (Budget40 `Auto)).report in
      let manual = (run_app a (Budget40 `Filtered)).report in
      let count (r : F.report) =
        List.length (List.filter (fun (t : F.target_info) -> t.eligible) r.targets)
      in
      Printf.printf "%-13s %9.3f %14.3f %14d %16d\n" name auto.speedup manual.speedup (count auto)
        (count manual))
    all_app_names;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Convergence (Section 6.1.2 / 6.2.2 claims)                          *)
(* ------------------------------------------------------------------ *)

let convergence () =
  print_endline "== GGA convergence: effect of target filtering (Section 6.2.2) ==";
  print_endline "application   filter      targets  converged-at-gen  best-objective";
  List.iter
    (fun name ->
      let a = app name in
      List.iter
        (fun (label, mode) ->
          let r = (run_app a mode).report in
          match r.gga with
          | None -> ()
          | Some g ->
              let targets =
                List.length (List.filter (fun (t : F.target_info) -> t.eligible) r.targets)
              in
              Printf.printf "%-13s %-11s %7d %17d %15.3f\n" name label targets g.converged_at
                g.best.raw_objective)
        [
          ("automated", Budget40 `Auto);
          ("manual", Budget40 `Filtered);
          ("none", Budget40 `None_);
        ])
    [ "Fluam"; "SCALE-LES" ];
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Ablation: lazy fission vs none vs eager pre-fission (Section 4.1)   *)
(* ------------------------------------------------------------------ *)

let ablation () =
  print_endline "== ablation: fission strategies (Section 4.1) ==";
  print_endline "   lazy   = the paper's scheme (fission on demand during the search)";
  print_endline "   none   = fusion only";
  print_endline "   eager  = every fissionable kernel split before the search (the";
  print_endline "            'impractical' strawman: a larger search space)";
  print_endline "application   strategy  units  speedup  evaluations  wall(s)";
  List.iter
    (fun name ->
      let a = app name in
      let run_with label prog fission =
        let t0 = Unix.gettimeofday () in
        let config =
          { (config_of_mode Full_auto) with
            gga_params = { (gga ()) with fission_enabled = fission } }
        in
        let r = F.transform ~config ~engine:(engine ()) prog in
        let wall = Unix.gettimeofday () -. t0 in
        let units =
          List.length (List.filter (fun (t : F.target_info) -> t.eligible) r.targets)
        in
        let evals = match r.gga with Some g -> g.evaluations | None -> 0 in
        Printf.printf "%-13s %-9s %6d %8.3f %12d %8.1f
%!" name label units r.speedup evals wall
      in
      run_with "lazy" a.program true;
      run_with "none" a.program false;
      (* eager: split everything fissionable up front, then search without
         lazy fission *)
      let plans =
        List.filter_map
          (fun k ->
            Option.map (fun p -> (k.Kft_cuda.Ast.k_name, p)) (Kft_fission.Fission.plan k))
          a.program.p_kernels
      in
      let eager = Kft_fission.Fission.apply_to_program ~plans a.program in
      run_with "eager" eager false)
    [ "AWP-ODC-GPU"; "B-CALM" ];
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Both evaluation devices (the paper measures K20X and K40)           *)
(* ------------------------------------------------------------------ *)

let devices () =
  print_endline "== speedups on both evaluation devices (K20X vs K40) ==";
  print_endline "application   K20X    K40";
  List.iter
    (fun name ->
      let a = app name in
      let s20 = (run_app a Full_auto).report.speedup in
      let config = { (config_of_mode Full_auto) with device = Apps.bench_device_k40 } in
      let r40 = F.transform ~config ~engine:(engine ()) a.program in
      Printf.printf "%-13s %6.3f  %6.3f
%!" name s20 r40.speedup)
    all_app_names;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Paper-scale search budget (500 generations x 100 individuals)       *)
(* ------------------------------------------------------------------ *)

let paper () =
  print_endline "== paper-scale GGA budget: 500 generations x 100 individuals ==";
  print_endline "application   speedup  evals   computed  memo-hit%  search(s)  total(s)";
  List.iter
    (fun name ->
      let a = app name in
      let { report = r; wall_s } = run_app a Paper_budget in
      match r.gga with
      | None -> Printf.printf "%-13s (no search: fewer than two targets)\n" name
      | Some g ->
          let es = g.engine_stats in
          Printf.printf "%-13s %7.3f %6d %9d %10.1f %10.1f %9.1f\n" name r.speedup
            es.es_requested es.es_computed (100.0 *. es.es_hit_rate) es.es_search_wall_s wall_s)
    all_app_names;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Simulator runs for the smoke guards                                 *)
(* ------------------------------------------------------------------ *)

(* one full schedule simulation on freshly seeded memory *)
let sim_run ?engine ?backend (p : Kft_cuda.Ast.program) =
  let mem = Kft_sim.Memory.create p.p_arrays in
  Kft_sim.Memory.init_seeded mem ~seed:42;
  let runs = Kft_sim.Interp.run_schedule ?engine ?backend mem p in
  (mem, List.map snd runs)

(* run [sim_run] under a temporary engine when [jobs > 1] *)
let sim_run_at ~jobs ~backend p =
  if jobs <= 1 then sim_run ~backend p
  else Engine.with_engine ~jobs ~memo:false (fun e -> sim_run ~engine:e ~backend p)

(* ------------------------------------------------------------------ *)
(* Allocation budget of the compiled affine hot loop                   *)
(* ------------------------------------------------------------------ *)

(* guarded 7-point stencil with a parametric domain: scaling (nx, ny)
   scales the thread count without changing the compiled closure graph,
   which is what lets the budget check below separate per-launch
   compilation cost from per-thread execution cost *)
let mem_probe_program (nx, ny, nz) =
  let open Kft_cuda.Ast in
  let src =
    {|
__global__ void probe(const double *A, double *B, int nx, int ny, int nz, double c) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i >= 1 && i < nx - 1 && j >= 1 && j < ny - 1) {
    for (int k = 1; k < nz - 1; k++) {
      B[(k * ny + j) * nx + i] = c * (A[(k * ny + j) * nx + i + 1] + A[(k * ny + j) * nx + i - 1]
        + A[(k * ny + (j + 1)) * nx + i] + A[(k * ny + (j - 1)) * nx + i]
        + A[((k + 1) * ny + j) * nx + i] + A[((k - 1) * ny + j) * nx + i]);
    }
  }
}
|}
  in
  {
    p_name = "mem-probe";
    p_arrays =
      List.map
        (fun n -> { a_name = n; a_elem_ty = Double; a_dims = [ nx; ny; nz ] })
        [ "A"; "B" ];
    p_kernels = [ Kft_cuda.Parse.kernel src ];
    p_schedule =
      [
        Launch
          { l_kernel = "probe"; l_domain = (nx, ny, 1); l_block = (16, 4, 1);
            l_args =
              [ Arg_array "A"; Arg_array "B"; Arg_int nx; Arg_int ny; Arg_int nz;
                Arg_double 0.25 ] };
      ];
  }

(* minor-heap words allocated by one sequential schedule run, plus the
   thread count it launched. [Gc.minor_words] is per-domain, so this
   measurement is only meaningful at jobs=1; memory setup and teardown
   stay outside the measured window (the grids themselves are off-heap
   and never counted by the GC at all). *)
let alloc_words ~backend (p : Kft_cuda.Ast.program) =
  let mem = Kft_sim.Memory.create p.p_arrays in
  Kft_sim.Memory.init_seeded mem ~seed:42;
  let w0 = Gc.minor_words () in
  let runs = Kft_sim.Interp.run_schedule ~backend mem p in
  let w1 = Gc.minor_words () in
  let threads =
    List.fold_left
      (fun a (_, (s : Kft_sim.Interp.stats)) -> a + s.threads_launched)
      0 runs
  in
  Kft_sim.Memory.release mem;
  (w1 -. w0, threads)

(* the substrate's hot-loop guarantee, asserted: on the compiled affine
   path, growing the domain 16x must not grow the
   allocation proportionally — steady-state words per additional thread
   stay below a fixed budget that is an order of magnitude under what a
   single boxed float per executed statement would cost. (The residual
   is about 0.14 words/thread: there is no per-thread boxing left.) *)
let alloc_budget_words_per_thread = 8.0

let assert_alloc_budget () =
  let dims_small = (16, 8, 6) and dims_large = (64, 32, 6) in
  let backend = Kft_sim.Interp.Affine in
  (* one warm-up run amortizes process-wide one-time setup *)
  ignore (alloc_words ~backend (mem_probe_program dims_small));
  let ws, ts = alloc_words ~backend (mem_probe_program dims_small) in
  let wl, tl = alloc_words ~backend (mem_probe_program dims_large) in
  let per_thread = (wl -. ws) /. float_of_int (tl - ts) in
  if per_thread > alloc_budget_words_per_thread then begin
    Printf.eprintf
      "[bench] mem: compiled-affine allocates %.2f words/thread in steady state (budget \
       %.1f): the hot loop is boxing\n%!"
      per_thread alloc_budget_words_per_thread;
    exit 1
  end;
  Printf.printf "  %-16s steady-state %.3f words/thread (budget %.1f)\n%!" "compiled-affine"
    per_thread alloc_budget_words_per_thread

(* ------------------------------------------------------------------ *)
(* Smoke: one tiny transformation per bench mode (tier-1 rot check)    *)
(* ------------------------------------------------------------------ *)

let smoke () =
  print_endline "== smoke: one tiny experiment per mode ==";
  let a = app "MITgcm" in
  List.iter
    (fun mode ->
      let base = config_of_mode mode in
      let config =
        { base with gga_params = { base.gga_params with generations = 5; population = 10 } }
      in
      let trace = Trace.create "bench-smoke" in
      let r = F.transform ~config ~engine:(engine ()) ~trace a.program in
      (match r.verified with
      | Ok () -> ()
      | Error diffs ->
          Printf.eprintf "[bench] smoke %s/%s: verification failed on %d arrays\n%!" a.app_name
            (mode_name mode) (List.length diffs);
          exit 1);
      Printf.printf "  %-22s %-12s speedup %5.3f  verified ok\n%!" (mode_name mode) a.app_name
        r.speedup;
      Printf.printf "    stages: %s\n%!"
        (String.concat " "
           (List.map
              (fun (stage, wall) -> Printf.sprintf "%s=%.1fms" stage (1000.0 *. wall))
              (Trace.top_spans trace))))
    [
      Fusion_only;
      Fission_fusion;
      Full_auto;
      Manual;
      Guided;
      Guided_filtered;
      Budget40 `Auto;
      Budget40 `Filtered;
      Budget40 `None_;
    ];
  (* backend determinism guard: every execution backend, sequential and
     parallel, must reproduce the sequential reference interpreter's
     memory and stats bit-for-bit on every bundled app (runs under `dune
     runtest` via the alias rule in bench/dune) *)
  List.iter
    (fun (prog_name, (p : Kft_cuda.Ast.program)) ->
      let m_seq, s_seq = sim_run_at ~jobs:1 ~backend:Kft_sim.Interp.Interpret p in
      List.iter
        (fun (label, jobs, backend) ->
          let m, st = sim_run_at ~jobs ~backend p in
          if not (Kft_sim.Memory.equal_within ~tol:0.0 m_seq m && s_seq = st) then begin
            Printf.eprintf "[bench] smoke: %s diverged from sequential on %s\n%!" label
              prog_name;
            exit 1
          end)
        Kft_sim.Interp.
          [
            ("compiled-affine@jobs=1", 1, Affine);
            ("block-parallel@jobs=2", 2, Affine);
            ("block-parallel@jobs=4", 4, Affine);
            ("interp@jobs=2", 2, Interpret);
            ("interp@jobs=4", 4, Interpret);
          ])
    (("quickstart", (Apps.quickstart ()).program)
    :: List.map (fun n -> (n, (app n).program)) all_app_names);
  Printf.printf "  %-22s %-12s bit-identical to sequential\n%!" "all-backends" "all apps";
  (* allocation-budget guard: the off-heap substrate's allocation-free
     hot loops must not regress (runs under `dune runtest`) *)
  assert_alloc_budget ();
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", table1);
    ("table2", table2);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("convergence", convergence);
    ("ablation", ablation);
    ("devices", devices);
    ("smoke", smoke);
  ]

(* opt-in only (long-running): never part of the default "run everything" *)
let extra_experiments = [ ("paper", paper) ]

let () =
  (* bench/main.exe [-j N] [experiment ...] *)
  let rec parse args =
    match args with
    | "-j" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n >= 1 -> jobs := n
        | _ ->
            Printf.eprintf "bench: -j expects a positive integer, got %S\n" n;
            exit 1);
        parse rest
    | names -> names
  in
  let selected =
    match parse (List.tl (Array.to_list Sys.argv)) with
    | [] -> List.map fst experiments
    | names -> names
  in
  List.iter
    (fun name ->
      match List.assoc_opt name (experiments @ extra_experiments) with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %S; available: %s\n" name
            (String.concat ", " (List.map fst (experiments @ extra_experiments)));
          exit 1)
    selected
