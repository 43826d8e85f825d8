(* CI driver behind the [verify] dune alias (`dune build @verify`):
   runs the kft_verify static analyzer over

   1. the quickstart example program (parsed from CUDA text, so the
      diagnostics exercise the source-position plumbing),
   2. the six bundled evaluation applications, both the original
      programs and the output of the full pipeline under the automated
      codegen options (small GGA budget, fatal verification gate).

   Exits non-zero on any diagnostic, incomplete report, or rejected
   group, so the alias fails loudly when a transformation regression
   introduces a race, divergent barrier, out-of-bounds access, or an
   order-violating fusion.  It also fails when a launch of the seven
   source programs needs the sampled race walker (a race fallback):
   every source launch must be covered by the whole-grid race proof.
   Transformed-program fallbacks are listed by kernel and array. *)

module F = Kft_framework.Framework
module V = Kft_verify.Verify

let failures = ref 0

let check ?(source = false) what (r : V.report) =
  let ok = V.is_clean r && r.complete && not (source && r.stats.race_fallback > 0) in
  Printf.printf
    "%-28s %s  (%d launches, %d/%d bounds proved, races %d proved / %d fallback, %d threads, \
     %d events)\n"
    what
    (if ok then "clean" else "DEFECTS")
    r.stats.launches_checked r.stats.bounds_proved
    (r.stats.bounds_proved + r.stats.bounds_fallback)
    r.stats.race_proved r.stats.race_fallback r.stats.threads_walked r.stats.events;
  List.iter
    (fun (k, a) -> Printf.printf "    race fallback: %s (array %s)\n" k a)
    r.race_fallbacks;
  if not ok then begin
    incr failures;
    List.iter (fun d -> Printf.printf "    %s\n" (V.pp_diagnostic d)) r.diagnostics;
    if not r.complete then print_endline "    (event budget exhausted: report incomplete)";
    if source && r.stats.race_fallback > 0 then
      print_endline "    (a source launch fell back to the race walker)"
  end

let small_config =
  {
    F.default_config with
    verify_mode = F.Verify_fatal;
    gga_params = { Kft_gga.Gga.default_params with population = 12; generations = 10 };
  }

let () =
  check ~source:true "examples/quickstart" (V.verify_program (Kft_apps.Apps.quickstart ()).program);
  let apps = Kft_apps.Apps.all () in
  List.iter
    (fun (a : Kft_apps.Apps.app) ->
      check ~source:true (a.app_name ^ " (source)") (V.verify_program a.program))
    apps;
  List.iter
    (fun (a : Kft_apps.Apps.app) ->
      let rep = F.transform ~config:small_config a.program in
      check (a.app_name ^ " (transformed)") rep.verify_report;
      if rep.rejected_groups <> [] then begin
        incr failures;
        List.iter
          (fun (k, why) -> Printf.printf "    rejected %s: %s\n" k why)
          rep.rejected_groups
      end;
      match rep.verified with
      | Ok () -> ()
      | Error diffs ->
          incr failures;
          Printf.printf "    simulator verification failed on %s\n"
            (String.concat "," (List.map fst diffs)))
    apps;
  if !failures > 0 then begin
    Printf.printf "verify: %d failures\n" !failures;
    exit 1
  end
  else print_endline "verify: all clean"
