(* Golden bit-exactness regression.

   Two gates, both re-derived the same way: run the suite; the Alcotest
   diff prints the actual rendered summary, which becomes the new golden
   string.

   Search outcomes pin the GGA result (best fitness, fusion groups,
   fissioned set) for the quickstart example and two of the six
   applications at a fixed small budget. The engine determinism contract
   says these values are a pure function of (program, params, seed) —
   independent of the worker count and of whether the memo cache is on —
   so any drift here means a behavioural change in the search, the
   performance model, or the frontend, and the goldens must be
   re-derived consciously.

   Work counters pin, for each of the six applications, one transform at
   the kft-transform defaults (150 generations x 40, seed 42, jobs 1):
   the speedup bits, a digest of the transformed program (the MD5 of
   what `kft-transform --emit-cuda` writes), the verifier's
   work and verdict counts, the genomes the search computed and
   requested, the baseline's simulated threads and the arena-pool
   traffic. None of them depends on the host or the clock, so the gate
   is exact: a change that moves any of them changes what the pipeline
   does, not how fast it runs. *)

module F = Kft_framework.Framework
module Apps = Kft_apps.Apps

(* Fixed small budget: large enough that the search does real work
   (crossover, mutation, fission decisions), small enough for tier-1. *)
let config =
  {
    F.default_config with
    gga_params =
      { Kft_gga.Gga.default_params with generations = 10; population = 12; seed = 20260806 };
  }

let render (report : F.report) =
  let b = Buffer.create 256 in
  (match report.gga with
  | None -> Buffer.add_string b "gga=none\n"
  | Some r ->
      Buffer.add_string b (Printf.sprintf "fitness=%.17g\n" r.best.fitness);
      Buffer.add_string b
        (Printf.sprintf "violations=%d evaluations=%d\n" r.best.violations r.evaluations));
  Buffer.add_string b
    (Printf.sprintf "groups=%s\n"
       (String.concat " " (List.map (String.concat "+") report.solution_groups)));
  Buffer.add_string b
    (Printf.sprintf "fissioned=%s\n" (String.concat "," report.fissioned));
  Buffer.contents b

let check_golden name program golden () =
  let report = F.transform ~config program in
  Alcotest.(check string) (name ^ " search outcome pinned") golden (render report)

let quickstart_golden =
  "fitness=11.939180487292035\n" ^ "violations=0 evaluations=112\n"
  ^ "groups=diffuse+relax+smooth\n" ^ "fissioned=\n"

let mitgcm_golden =
  "fitness=7.0158016449894038\n" ^ "violations=0 evaluations=112\n"
  ^ "groups=axpy_01+lap_01 axpy_02+lap_03 axpy_03 axpy_04 axpy_05 axpy_06+lap_07 axpy_07 \
     lap_02 lap_04 lap_05 lap_06\n" ^ "fissioned=\n"

let fluam_golden =
  "fitness=5.0422491561703335\n" ^ "violations=0 evaluations=112\n"
  ^ "groups=acc_01 acc_02 acc_03 acc_04 acc_05 acc_06 acc_07 acc_08 acc_09 acc_10 fvol_01 \
     fvol_02+rk_08 fvol_03 fvol_04 fvol_05+fvol_06 fvol_07 fvol_08 fvol_09 fvol_10 part_01 \
     part_02 part_03 part_04 part_05 part_06 part_07 part_08 part_09 part_10 part_11 part_12 \
     rk_01 rk_02 rk_03 rk_04 rk_05 rk_06 rk_07 rk_09 rk_10\n" ^ "fissioned=\n"

(* The kft-transform defaults: the CLI's device (launch overhead scaled
   to the reduced grids), 150 generations x 40 individuals, seed 42 for
   the search and the data, sequential evaluation with the memo on. *)
let cli_config =
  {
    F.default_config with
    device = Apps.bench_device;
    gga_params =
      { Kft_gga.Gga.default_params with generations = 150; population = 40; seed = 42 };
  }

let render_counters (r : F.report) =
  let v = r.verify_report.stats in
  let threads =
    List.fold_left
      (fun n (k : Kft_sim.Profiler.kernel_profile) -> n + k.stats.threads_launched)
      0 r.baseline.profiles
  in
  String.concat ""
    [
      Printf.sprintf "speedup=%h\n" r.speedup;
      Printf.sprintf "program=%s\n"
        (Digest.to_hex (Digest.string (Kft_cuda.Pp.program r.transformed)));
      Printf.sprintf "verify events=%d launches_checked=%d race_proved=%d race_fallback=%d\n"
        v.events v.launches_checked v.race_proved v.race_fallback;
      (match r.gga with
      | None -> "gga=none\n"
      | Some g ->
          Printf.sprintf "gga es_computed=%d es_requested=%d\n" g.engine_stats.es_computed
            g.engine_stats.es_requested);
      Printf.sprintf "baseline threads=%d\n" threads;
      Printf.sprintf "pool requests=%d cells_requested=%d\n" r.pool_stats.requests
        r.pool_stats.cells_requested;
    ]

let counters_golden =
  [
    ( "SCALE-LES",
      "speedup=0x1.3b98bbcebb239p+0\n"
      ^ "program=0131dddc7be72016f07241328a8a3d3a\n"
      ^ "verify events=0 launches_checked=44 race_proved=44 race_fallback=0\n"
      ^ "gga es_computed=2027 es_requested=5740\n"
      ^ "baseline threads=173568\n"
      ^ "pool requests=2 cells_requested=3096576\n" );
    ( "HOMME",
      "speedup=0x1.5982a36e2c8e3p+0\n"
      ^ "program=e12e0083cc0329b10fa0d16e67d5e897\n"
      ^ "verify events=1944676 launches_checked=25 race_proved=22 race_fallback=3\n"
      ^ "gga es_computed=875 es_requested=5740\n"
      ^ "baseline threads=66048\n"
      ^ "pool requests=2 cells_requested=1658880\n" );
    ( "Fluam",
      "speedup=0x1.2382203e4a9fp+0\n"
      ^ "program=e1d8d991271ce64bbfbf2de5a6eb1cee\n"
      ^ "verify events=539136 launches_checked=80 race_proved=68 race_fallback=12\n"
      ^ "gga es_computed=980 es_requested=5740\n"
      ^ "baseline threads=104448\n"
      ^ "pool requests=2 cells_requested=1265664\n" );
    ( "MITgcm",
      "speedup=0x1.4bf36865b09a5p+0\n"
      ^ "program=e006547a91d38f53438c1b5502bab424\n"
      ^ "verify events=0 launches_checked=27 race_proved=27 race_fallback=0\n"
      ^ "gga es_computed=359 es_requested=5740\n"
      ^ "baseline threads=37888\n"
      ^ "pool requests=2 cells_requested=737280\n" );
    ( "AWP-ODC-GPU",
      "speedup=0x1.e86661fdab9f2p+0\n"
      ^ "program=aaabc7b83b08e78ae608b53bf7832816\n"
      ^ "verify events=0 launches_checked=11 race_proved=11 race_fallback=0\n"
      ^ "gga es_computed=175 es_requested=5740\n"
      ^ "baseline threads=12288\n"
      ^ "pool requests=3 cells_requested=700416\n" );
    ( "B-CALM",
      "speedup=0x1.55b636f288f9ep+0\n"
      ^ "program=4370f2bbfc3de06c526ce03d01b9fe87\n"
      ^ "verify events=0 launches_checked=20 race_proved=20 race_fallback=0\n"
      ^ "gga es_computed=486 es_requested=5740\n"
      ^ "baseline threads=23552\n"
      ^ "pool requests=3 cells_requested=1253376\n" );
  ]

let check_counters (a : Apps.app) () =
  let r = F.transform ~config:cli_config a.program in
  Alcotest.(check string) (a.app_name ^ " work counters pinned")
    (List.assoc a.app_name counters_golden) (render_counters r)

let suite =
  [
    Alcotest.test_case "quickstart golden" `Quick
      (fun () -> check_golden "quickstart" (Apps.quickstart ()).program quickstart_golden ());
    Alcotest.test_case "MITgcm golden" `Quick
      (fun () -> check_golden "mitgcm" (Apps.mitgcm ()).program mitgcm_golden ());
    Alcotest.test_case "Fluam golden" `Quick
      (fun () -> check_golden "fluam" (Apps.fluam ()).program fluam_golden ());
  ]
  @ List.map
      (fun (a : Apps.app) ->
        Alcotest.test_case (a.app_name ^ " work counters") `Quick (check_counters a))
      (Apps.all ())
