(* End-to-end benchmark of [Framework.transform].

   The unit of work is one cold transform of a generated application at
   the kft-transform defaults: 150 generations x 40, advisory static
   verification, the Auto simulator backend, device [Apps.bench_device].
   A workload is a fixed list of applications; one pass transforms each
   of them once, on a fresh engine, fresh program ASTs, a fresh profile
   cache and a reset arena pool.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   The seed goes to [config.seed]: the contents of simulated memory and
   the component order of fission plans. The GGA seed stays at the
   kft-transform default, 42. When it followed --seed, the search found
   a different transformation on every seed, and pass time and
   verified-launch share moved by far more than any bound.

   With --trace 0 the benchmark times untraced passes for S seconds and
   prints the end-to-end metrics. With --trace 1 it runs one untraced and
   one traced pass, times each layer from outside through its public
   functions, and prints the per-layer metrics.

   Both modes check the outputs: every application and its transformed
   program are re-simulated on the Interpret oracle backend and must
   agree within [config.verify_tolerance], and the deterministic counters
   of each transform must repeat exactly across passes. The last stdout
   line is one JSON object {correct, attempted, failed, metrics}; the
   exit code is 1 when any check failed. The [selfcheck] workload runs
   every path of both modes on quickstart in a few seconds. *)

module Ast = Kft_cuda.Ast
module F = Kft_framework.Framework
module Apps = Kft_apps.Apps
module Engine = Kft_engine.Engine
module Meta = Kft_metadata.Metadata
module Interp = Kft_sim.Interp
module Memory = Kft_sim.Memory
module Trace = Kft_trace.Trace
module Verify = Kft_verify.Verify

let now = Unix.gettimeofday

let cores = Domain.recommended_domain_count ()

type workload = {
  w_name : string;
  programs : unit -> Ast.program list;  (** fresh ASTs on every call *)
  jobs : int;
  generations : int;
  population : int;
}

let workloads =
  let w ?(jobs = 1) ?(generations = 150) ?(population = 40) w_name apps =
    {
      w_name;
      programs = (fun () -> List.map (fun (a : Apps.app) -> a.program) (apps ()));
      jobs = min jobs cores;
      generations;
      population;
    }
  in
  [
    (* static verification is most of each of these transforms *)
    w "verify-bound" (fun () -> [ Apps.awp_odc (); Apps.bcalm (); Apps.mitgcm () ]);
    (* the one app where the GGA search is the largest stage; at jobs 2
       on a 2-core host its pass time spread too widely to be gated *)
    w "search-bound" (fun () -> [ Apps.scale_les () ]);
    (* 32x the default cells makes the simulator stages most of the pass;
       64x took a traced run too close to its time limit *)
    w "sim-bound" (fun () ->
        [ Apps.mitgcm ~dims:{ Kft_apps.Gen.nx = 512; ny = 64; nz = 12 } () ]);
    (* seconds-long check of every metric path, the worker pool included *)
    w ~jobs:2 ~generations:5 ~population:10 "selfcheck" (fun () -> [ Apps.quickstart () ]);
  ]

let config w ~seed =
  {
    F.default_config with
    device = Apps.bench_device;
    seed;
    sim_cache = Some (Meta.Sim_cache.create ());
    gga_params =
      {
        Kft_gga.Gga.default_params with
        generations = w.generations;
        population = w.population;
        seed = 42;
      };
  }

(* every failed check lands here; any entry makes the run incorrect *)
let errors = ref []

(* apps whose transformed output failed the Interpret reference check *)
let bad_apps = ref []

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("e2ebench: " ^ m);
      errors := m :: !errors)
    fmt

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* median wall of [f] over at least 5 calls and at least 0.2 s *)
let timed_median f =
  let rec go acc n spent =
    if n >= 5 && spent >= 0.2 then (fst (List.hd acc), median (List.map snd acc))
    else
      let ((_, dt) as s) = timed f in
      go (s :: acc) (n + 1) (spent +. dt)
  in
  go [] 0 0.

(* a physically fresh copy: the Vector backend memoizes its prepared
   launches by program identity, so every probe starts cold *)
let copy (p : Ast.program) : Ast.program = Marshal.from_string (Marshal.to_string p []) 0

let launches (p : Ast.program) =
  List.length (List.filter (function Ast.Launch _ -> true | _ -> false) p.p_schedule)

let profile_threads (run : Kft_sim.Profiler.run) =
  List.fold_left
    (fun n (k : Kft_sim.Profiler.kernel_profile) -> n + k.stats.Interp.threads_launched)
    0 run.profiles

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)
(* ------------------------------------------------------------------ *)

type setup = { progs : Ast.program list; engine : Engine.t; setup_s : float }

let setup w =
  let (progs, engine), setup_s =
    timed (fun () ->
        let progs = w.programs () in
        (progs, Engine.create ~jobs:w.jobs ~memo:true ()))
  in
  { progs; engine; setup_s }

(* Set-up takes about a millisecond, so one sample is the mean over a
   fixed batch of 100 set-ups; the run reports the median of five such
   samples. The batch is fixed, not timed, so that the heap a run starts
   its passes with does not depend on the host's speed. *)
let setup_samples w =
  List.init 5 (fun _ ->
      let total = ref 0. in
      for _ = 1 to 100 do
        let s = setup w in
        Engine.shutdown s.engine;
        total := !total +. s.setup_s
      done;
      !total /. 100.)

(* one transform's outcome; [counters] are the deterministic ones the
   run gates exactly *)
type summary = {
  app : string;
  wall : float;
  ok : bool;  (** did not raise and passed the pipeline's output verify *)
  transformed : Ast.program option;
  speedup : float;
  launches : int;
  launches_checked : int;
  counters : (string * string) list;
}

let summarize (prog : Ast.program) wall = function
  | Error e ->
      fail "%s: transform raised %s" prog.p_name (Printexc.to_string e);
      {
        app = prog.p_name;
        wall;
        ok = false;
        transformed = None;
        speedup = nan;
        launches = 0;
        launches_checked = 0;
        counters = [];
      }
  | Ok (r : F.report) ->
      let ok =
        match r.verified with
        | Ok () -> true
        | Error diffs ->
            fail "%s: output verification failed on %d arrays" prog.p_name (List.length diffs);
            false
      in
      let vs = r.verify_report.stats in
      let genomes = match r.gga with Some g -> g.engine_stats.es_computed | None -> 0 in
      {
        app = prog.p_name;
        wall;
        ok;
        transformed = Some r.transformed;
        speedup = r.speedup;
        launches = launches r.transformed;
        launches_checked = vs.launches_checked;
        counters =
          [
            ("speedup", Printf.sprintf "%h" r.speedup);
            ("transformed", Digest.to_hex (Digest.string (Kft_cuda.Pp.program r.transformed)));
            ("verify.events", string_of_int vs.events);
            ("verify.launches_checked", string_of_int vs.launches_checked);
            ("gga.genomes_computed", string_of_int genomes);
            ("sim.threads", string_of_int (profile_threads r.baseline));
            ("pool.requests", string_of_int r.pool_stats.requests);
          ];
      }

(* Transform every program of [s] once; the pass wall is the sum of the
   transform walls. A traced pass records each transform under its own
   trace and also returns the reports, for the layer probes to run once
   the engine is shut down. *)
let pass w ~seed ?(traced = false) s =
  let runs =
    List.map
      (fun (prog : Ast.program) ->
        let config = config w ~seed in
        let trace = if traced then Some (Trace.create prog.p_name) else None in
        Memory.Pool.reset ();
        Gc.full_major ();
        let r, wall =
          timed (fun () ->
              try Ok (F.transform ~config ~engine:s.engine ?trace prog) with e -> Error e)
        in
        let kept = match r with Ok r when traced -> [ (config, prog, r) ] | _ -> [] in
        (summarize prog wall r, kept))
      s.progs
  in
  let pool = Engine.pool_stats s.engine in
  Engine.shutdown s.engine;
  (List.map fst runs, pool, List.concat_map snd runs)

let pass_wall = List.fold_left (fun t sm -> t +. sm.wall) 0.

(* the determinism gate: every counter of [b] must equal [a]'s *)
let gate ~what a b =
  List.iter2
    (fun sa sb ->
      List.iter
        (fun (k, va) ->
          match List.assoc_opt k sb.counters with
          | Some vb when vb = va -> ()
          | vb ->
              fail "determinism: %s of %s is %s in the first pass but %s in %s" k sa.app va
                (Option.value vb ~default:"missing") what)
        sa.counters)
    a b

(* ------------------------------------------------------------------ *)
(* Simulation on one backend, and the Interpret reference check        *)
(* ------------------------------------------------------------------ *)

type sim = { mem : Memory.t; sim_s : float; threads : int; minor_words : float }

let simulate ~seed backend prog =
  let prog = copy prog in
  let mem = Memory.create prog.p_arrays in
  Memory.init_seeded mem ~seed;
  let w0 = Gc.minor_words () in
  let runs, sim_s = timed (fun () -> Interp.run_schedule ~backend mem prog) in
  let minor_words = Gc.minor_words () -. w0 in
  let threads =
    List.fold_left (fun n (_, (st : Interp.stats)) -> n + st.threads_launched) 0 runs
  in
  { mem; sim_s; threads; minor_words }

(* Re-simulate the source and the transformed program on the Interpret
   oracle, independently of the pipeline's own Auto-backend output
   verify. Returns both runs; the caller releases them. *)
let reference ~seed ~tol (src : Ast.program) transformed =
  let s = simulate ~seed Interp.Interpret src in
  let t = simulate ~seed Interp.Interpret transformed in
  if not (Memory.equal_within ~tol s.mem t.mem) then begin
    bad_apps := src.p_name :: !bad_apps;
    fail "reference: %s transformed output differs from the Interpret reference: %s"
      src.p_name
      (String.concat ", "
         (List.filter_map
            (fun (a, d) -> if d > tol then Some (Printf.sprintf "%s %g" a d) else None)
            (Memory.max_abs_diff s.mem t.mem)))
  end;
  (s, t)

let reference_pass w ~seed summaries =
  List.iter2
    (fun src sm ->
      Option.iter
        (fun tr ->
          let s, t = reference ~seed ~tol:F.default_config.verify_tolerance src tr in
          Memory.release s.mem;
          Memory.release t.mem)
        sm.transformed)
    (w.programs ()) summaries

(* transforms that raised, failed the output verify or belong to an app
   that failed the reference check *)
let failed_count passes =
  List.fold_left
    (fun n sums ->
      List.fold_left
        (fun n sm -> if sm.ok && not (List.mem sm.app !bad_apps) then n else n + 1)
        n sums)
    0 passes

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ------------------------------------------------------------------ *)
(* Result line                                                         *)
(* ------------------------------------------------------------------ *)

let print_result ~attempted ~failed metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let ms =
    List.map
      (fun (name, unit, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!errors = []) attempted failed (String.concat ", " ms)

(* ------------------------------------------------------------------ *)
(* --trace 0: end-to-end metrics from untraced passes                  *)
(* ------------------------------------------------------------------ *)

let end_to_end w ~seed ~seconds =
  let setups = setup_samples w in
  (* start another pass only while it is expected to end within the
     measuring window; the first pass always runs *)
  let rec loop acc spent =
    let last = match acc with sums :: _ -> pass_wall sums | [] -> 0. in
    if acc <> [] && spent +. last > seconds then List.rev acc
    else begin
      let sums, _, _ = pass w ~seed (setup w) in
      loop (sums :: acc) (spent +. pass_wall sums)
    end
  in
  let passes = loop [] 0. in
  let rss = peak_rss_mb () in
  let first = List.hd passes in
  List.iteri (fun i p -> if i > 0 then gate ~what:(Printf.sprintf "pass %d" (i + 1)) first p) passes;
  reference_pass w ~seed first;
  let walls = List.map pass_wall passes in
  let n_apps = List.length first in
  let attempted = n_apps * List.length passes in
  let failed = failed_count passes in
  let geomean =
    exp (List.fold_left (fun a sm -> a +. log sm.speedup) 0. first /. float_of_int n_apps)
  in
  let sum f = float_of_int (List.fold_left (fun a sm -> a + f sm) 0 first) in
  List.iter
    (fun sm ->
      Printf.printf "  %-12s speedup %.4fx  launches checked %d/%d  first pass %.2f s\n" sm.app
        sm.speedup sm.launches_checked sm.launches sm.wall)
    first;
  Printf.printf "pass_s: median of %d passes (%s s); setup_s: median of %d batches\n"
    (List.length walls)
    (String.concat ", " (List.map (Printf.sprintf "%.3f") walls))
    (List.length setups);
  print_result ~attempted ~failed
    [
      ("pass_s", "s", median walls);
      ("setup_s", "s", median setups);
      ("speedup_geomean", "x", geomean);
      ( "verified_launch_share",
        "ratio",
        sum (fun sm -> sm.launches_checked) /. sum (fun sm -> sm.launches) );
      ("ok_share", "ratio", 1. -. (float_of_int failed /. float_of_int attempted));
      ("peak_rss_mb", "MB", rss);
    ]

(* ------------------------------------------------------------------ *)
(* --trace 1: per-layer metrics from a traced pass and layer probes    *)
(* ------------------------------------------------------------------ *)

let stages =
  [ "gather"; "fission"; "search"; "codegen"; "verify"; "profile-transformed"; "output-verify"; "lint" ]

let backends = Interp.[ Interpret; Affine; Vector; Auto ]

(* Time each layer of one transform from outside, through its public
   functions, summing into [acc]. [src] is a fresh copy of the program
   the pipeline transformed. Also runs the Interpret reference check and
   checks every backend against it bit for bit. *)
let probe_layers acc ~seed (config : F.config) (src : Ast.program) (r : F.report) =
  let add k v = Hashtbl.replace acc k (v +. Option.value (Hashtbl.find_opt acc k) ~default:0.) in
  let addi k v = add k (float_of_int v) in
  let max_into k v =
    Hashtbl.replace acc k (Float.max v (Option.value (Hashtbl.find_opt acc k) ~default:0.))
  in
  (* kft_framework: top-level stage walls of the traced transform *)
  Option.iter
    (fun t -> List.iter (fun (name, s) -> add ("stage." ^ name) s) (Trace.top_spans t))
    r.trace;
  (* kft_verify, on the post-fission source the pipeline validated *)
  let source =
    match List.filter (fun (k, _) -> List.mem k r.fissioned) r.fission_plans with
    | [] -> src
    | plans -> Kft_fission.Fission.apply_to_program ~plans src
  in
  let vr, dt =
    timed (fun () -> Verify.validate ~options:config.codegen_options ~source r.codegen)
  in
  add "verify.validate_s" dt;
  addi "verify.events" vr.stats.events;
  addi "verify.launches_checked" vr.stats.launches_checked;
  addi "verify.bounds_fallback" vr.stats.bounds_fallback;
  if vr.stats.events <> r.verify_report.stats.events then
    fail "determinism: verify.events of %s is %d in the pipeline but %d in the probe"
      src.p_name r.verify_report.stats.events vr.stats.events;
  (* kft_gga / kft_engine *)
  Option.iter
    (fun (g : Kft_gga.Gga.result) ->
      addi "gga.genomes_computed" g.engine_stats.es_computed;
      addi "gga.genomes_requested" g.engine_stats.es_requested;
      add "gga.search_s" g.engine_stats.es_search_wall_s)
    r.gga;
  (* kft_metadata: cold gather, warm replay on the same cache, profile *)
  let cache = Meta.Sim_cache.create () in
  let gather () = Meta.gather ~cache ~seed config.device (copy src) in
  let (_, run), dt = timed gather in
  add "metadata.gather_s" dt;
  Memory.release run.memory;
  let (_, run), dt = timed gather in
  add "metadata.replay_s" dt;
  Memory.release run.memory;
  Meta.Sim_cache.clear cache;
  let run, dt =
    timed (fun () -> Meta.profile ~cache ~seed config.device (copy r.transformed))
  in
  add "metadata.profile_s" dt;
  Memory.release run.memory;
  Meta.Sim_cache.clear cache;
  Option.iter
    (fun (st : Engine.Cache.stats) ->
      addi "sim_cache.hits" st.hits;
      addi "sim_cache.misses" st.misses)
    r.sim_cache_stats;
  addi "pool.requests" r.pool_stats.requests;
  addi "pool.cells_requested" r.pool_stats.cells_requested;
  max_into "pool.high_water_mcells" (float_of_int r.pool_stats.high_water /. 1e6);
  (* kft_sim: each backend on the source, checked against Interpret *)
  let tol = config.verify_tolerance in
  let ref_src, ref_tr = reference ~seed ~tol src r.transformed in
  let record name (s : sim) =
    add ("sim_s." ^ name) s.sim_s;
    addi ("sim_threads." ^ name) s.threads
  in
  record "interp" ref_src;
  addi "sim.threads" ref_src.threads;
  if ref_src.threads <> profile_threads r.baseline then
    fail "determinism: sim.threads of %s is %d in the pipeline but %d in the probe" src.p_name
      (profile_threads r.baseline) ref_src.threads;
  List.iter
    (fun b ->
      if b <> Interp.Interpret then begin
        let s = simulate ~seed b src in
        record (Interp.backend_name b) s;
        if b = Interp.Auto then begin
          add "sim.minor_words" s.minor_words;
          addi "sim.minor_threads" s.threads
        end;
        if not (Memory.equal_within ~tol:0. ref_src.mem s.mem) then
          fail "backend %s differs from interp on %s" (Interp.backend_name b) src.p_name;
        Memory.release s.mem
      end)
    backends;
  let fused = simulate ~seed Interp.Auto r.transformed in
  add "sim.fused_s" fused.sim_s;
  addi "sim.fused_threads" fused.threads;
  if not (Memory.equal_within ~tol:0. ref_tr.mem fused.mem) then
    fail "backend auto differs from interp on transformed %s" src.p_name;
  List.iter (fun (s : sim) -> Memory.release s.mem) [ fused; ref_src; ref_tr ];
  (* kft_schedflow, kft_ddg, kft_absint lint, kft_codegen *)
  add "schedflow.analyze_s" (snd (timed_median (fun () -> Kft_schedflow.Schedflow.analyze src)));
  add "ddg.build_s" (snd (timed_median (fun () -> Kft_ddg.Ddg.build src)));
  let measured =
    List.map
      (fun (p : Kft_sim.Profiler.kernel_profile) ->
        (p.kernel, float_of_int (p.stats.global_read_bytes + p.stats.global_write_bytes)))
      r.transformed_run.profiles
  in
  let findings, dt = timed_median (fun () -> Kft_absint.Lint.program ~measured r.transformed) in
  add "lint.program_s" dt;
  addi "lint.findings" (List.length findings);
  addi "codegen.fused_kernels"
    (List.length
       (List.filter
          (fun (k : Kft_codegen.Codegen.kernel_report) -> k.fusion_kind <> `None)
          r.codegen.reports))

let per_layer w ~seed =
  let untraced, _, _ = pass w ~seed (setup w) in
  let traced, pool, reports = pass w ~seed ~traced:true (setup w) in
  let acc = Hashtbl.create 64 in
  List.iter (fun (config, prog, r) -> probe_layers acc ~seed config (copy prog) r) reports;
  gate ~what:"the traced pass" untraced traced;
  let get k = Option.value (Hashtbl.find_opt acc k) ~default:0. in
  let ratio a b = if b > 0. then a /. b else 0. in
  let traced_wall = pass_wall traced in
  let stage_metrics = List.map (fun st -> ("stage." ^ st ^ "_s", "s", get ("stage." ^ st))) stages in
  let other = traced_wall -. List.fold_left (fun a (_, _, v) -> a +. v) 0. stage_metrics in
  let genomes = get "gga.genomes_computed" in
  let threads_per_s b = ratio (get ("sim_threads." ^ b)) (get ("sim_s." ^ b)) in
  let attempted = 2 * List.length untraced in
  let failed = failed_count [ untraced; traced ] in
  Printf.printf "untraced pass %.3f s, traced pass %.3f s\n" (pass_wall untraced) traced_wall;
  print_result ~attempted ~failed
    (stage_metrics
    @ [
        ("stage.other_s", "s", other);
        ("verify.validate_s", "s", get "verify.validate_s");
        ("verify.events", "count", get "verify.events");
        ("verify.events_per_s", "1/s", ratio (get "verify.events") (get "verify.validate_s"));
        ("verify.launches_checked", "count", get "verify.launches_checked");
        ("verify.bounds_fallback", "count", get "verify.bounds_fallback");
        ("gga.genomes_computed", "count", genomes);
        ("gga.genomes_requested", "count", get "gga.genomes_requested");
        ("gga.memo_hit_share", "ratio", 1. -. ratio genomes (get "gga.genomes_requested"));
        ("gga.ms_per_genome", "ms", 1000. *. ratio (get "gga.search_s") genomes);
        ("engine.batches", "count", float_of_int pool.st_batches);
        ("engine.steals", "count", float_of_int pool.st_steals);
        ("metadata.gather_s", "s", get "metadata.gather_s");
        ("metadata.replay_s", "s", get "metadata.replay_s");
        ("metadata.profile_s", "s", get "metadata.profile_s");
        ("sim.threads", "count", get "sim.threads");
      ]
    @ List.map
        (fun b ->
          let b = Interp.backend_name b in
          ("sim.threads_per_s." ^ b, "1/s", threads_per_s b))
        backends
    @ [
        ("sim.fused_threads_per_s", "1/s", ratio (get "sim.fused_threads") (get "sim.fused_s"));
        ("sim.minor_words_per_thread", "words", ratio (get "sim.minor_words") (get "sim.minor_threads"));
        ("sim_cache.hits", "count", get "sim_cache.hits");
        ("sim_cache.misses", "count", get "sim_cache.misses");
        ("pool.requests", "count", get "pool.requests");
        ("pool.cells_requested", "count", get "pool.cells_requested");
        ("pool.high_water_mcells", "Mcells", get "pool.high_water_mcells");
        ("schedflow.analyze_s", "s", get "schedflow.analyze_s");
        ("ddg.build_s", "s", get "ddg.build_s");
        ("lint.program_s", "s", get "lint.program_s");
        ("lint.findings", "count", get "lint.findings");
        ("codegen.fused_kernels", "count", get "codegen.fused_kernels");
        ("trace_overhead_share", "ratio", ratio traced_wall (pass_wall untraced));
      ])

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: verify-bound search-bound sim-bound selfcheck";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let w =
    match List.find_opt (fun w -> w.w_name = get "workload") workloads with
    | Some w -> w
    | None -> usage ()
  in
  let seed = int "seed" and seconds = float_of_int (int "seconds") in
  Printf.printf "e2ebench: workload %s, seed %d, %d cores, %d jobs, %d x %d GGA budget\n%!"
    w.w_name seed cores w.jobs w.generations w.population;
  (match int "trace" with
  | 0 -> end_to_end w ~seed ~seconds
  | 1 -> per_layer w ~seed
  | _ -> usage ());
  exit (if !errors = [] then 0 else 1)
