(* kft_absint: abstract-interpretation bounds proofs, footprint
   soundness against the reference interpreter, guard elimination with
   translation validation, and the lint surface. *)

open Kft_cuda.Ast
module A = Kft_absint.Absint

let launches p = List.filter_map (function Launch l -> Some l | _ -> None) p.p_schedule

let analyze_all p =
  List.map
    (fun l ->
      match A.analyze_launch p l with
      | Some r -> r
      | None -> Alcotest.failf "analyze_launch failed for %s" l.l_kernel)
    (launches p)

(* ------------------------------------------------------------------ *)
(* zero-fallback bounds proofs on quickstart + the six applications    *)
(* ------------------------------------------------------------------ *)

let test_quickstart_all_proved () =
  let p = Util.quickstart_program () in
  List.iter
    (fun (r : A.result) ->
      Alcotest.(check bool) (r.res_kernel ^ " all proved") true r.res_all_proved;
      Alcotest.(check bool) (r.res_kernel ^ " has accesses") true (r.res_proved > 0))
    (analyze_all p)

let test_apps_all_proved () =
  List.iter
    (fun (a : Kft_apps.Apps.app) ->
      List.iter
        (fun (r : A.result) ->
          Alcotest.(check bool)
            (a.app_name ^ "/" ^ r.res_kernel ^ " all proved")
            true r.res_all_proved)
        (analyze_all a.program))
    (Kft_apps.Apps.all ())

(* the analyzer is not blindly optimistic: a genuine halo out-of-bounds
   read is not proved (interval straddles the extent) *)
let test_oob_not_proved () =
  let src =
    {|
__global__ void oob(const double *A, double *B, int nx, int ny) {
  int gi = blockIdx.x * blockDim.x + threadIdx.x;
  int gj = blockIdx.y * blockDim.y + threadIdx.y;
  if (gi < nx && gj < ny) {
    B[gj * nx + gi] = A[gj * nx + gi - 1];
  }
}
|}
  in
  let k = List.hd (Kft_cuda.Parse.kernels src) in
  let r =
    A.analyze_kernel ~block:(16, 4, 1) ~grid:(2, 2, 1)
      ~int_params:[ ("nx", 32); ("ny", 8) ]
      ~global_cells:[ ("A", 256); ("B", 256) ]
      k
  in
  Alcotest.(check bool) "not all proved" false r.res_all_proved;
  let bad =
    List.find (fun (a : A.access) -> a.acc_status <> A.Proved) r.res_accesses
  in
  Alcotest.(check string) "offender is A" "A" bad.acc_array;
  Alcotest.(check int) "range reaches -1" (-1) bad.acc_range.lo

(* footprints: quickstart diffuse reads U over the halo box, writes V
   interior only *)
let test_quickstart_footprints () =
  let p = Util.quickstart_program () in
  let r = List.hd (analyze_all p) in
  Alcotest.(check string) "first launch is diffuse" "diffuse" r.res_kernel;
  let fp name = List.assoc name r.res_footprints in
  let u = fp "U" and v = fp "V" in
  (match u.A.fp_reads with
  | Some i ->
      (* k in [0,nz-1] via the +-1 halo, j,i interior +-1: full box *)
      Alcotest.(check bool) "U read range inside array" true (i.A.lo >= 0 && i.A.hi < 64 * 16 * 12)
  | None -> Alcotest.fail "U has no read footprint");
  (match v.A.fp_writes with
  | Some i ->
      Alcotest.(check bool) "V writes are interior" true (i.A.lo > 0 && i.A.hi < 64 * 16 * 12 - 1)
  | None -> Alcotest.fail "V has no write footprint");
  Alcotest.(check bool) "U is never written" true (u.A.fp_writes = None)

(* the race-proof view of an access: a cooperative tile load folds back
   into its loop counter, the halo preload carries the negated guard,
   and barriers split intervals *)
let test_access_forms () =
  let src =
    {|
__global__ void tile(const double *A, double *B) {
  int tx = threadIdx.x;
  int ty = threadIdx.y;
  int tid = ty * 16 + tx;
  __shared__ double s[6][18];
  for (int kv = 0; kv < 4; kv++) {
    for (int c = tid; c < 108; c += 64) {
      int lx = c % 18;
      int ly = c / 18;
      int gx = blockIdx.x * 16 + lx - 1;
      if (gx >= 1 && gx < 31) {
        ;
      } else {
        s[ly][lx] = A[gx + 1];
      }
    }
    __syncthreads();
    B[(kv * 4 + ty) * 32 + blockIdx.x * 16 + tx] = s[ty + 1][tx + 1];
    __syncthreads();
  }
}
|}
  in
  let k = List.hd (Kft_cuda.Parse.kernels src) in
  let r =
    A.analyze_kernel ~block:(16, 4, 1) ~grid:(2, 1, 1) ~int_params:[]
      ~global_cells:[ ("A", 34); ("B", 512) ]
      k
  in
  let find space write =
    List.find (fun (a : A.access) -> a.acc_space = space && a.acc_write = write) r.res_accesses
  in
  let load = find A.Shared true and use = find A.Shared false in
  let kind s = r.res_syms.(s).A.sy_kind in
  (match load.acc_form with
  | Some { f_terms = [ (0, 1); (1, 16); (m, 64) ]; f_const = 0 } ->
      Alcotest.(check bool) "third term is a trip counter" true
        (match kind m with A.Trip _ -> true | _ -> false)
  | _ -> Alcotest.fail "s[c / 18][c % 18] does not fold back into c = tid + 64*m");
  Alcotest.(check bool) "the preload sits under a negated guard" true
    (List.exists (function A.Fails [ _; _ ] -> true | _ -> false) load.acc_guards);
  Alcotest.(check bool) "the barrier separates the load from the use" true
    (load.acc_interval <> use.acc_interval);
  Alcotest.(check (option int)) "threadIdx.x stride of the output" (Some 1)
    (A.tx_stride r.res_syms (find A.Global true));
  Alcotest.(check bool) "the barrier loop's counter is fixed per interval" true
    (Array.exists (fun (y : A.sym) -> y.sy_kind = A.Trip true) r.res_syms)

let suite =
  [
    Alcotest.test_case "quickstart: every access proved in bounds" `Quick
      test_quickstart_all_proved;
    Alcotest.test_case "access forms, guards and barrier intervals" `Quick test_access_forms;
    Alcotest.test_case "six apps: every access proved in bounds" `Quick test_apps_all_proved;
    Alcotest.test_case "halo out-of-bounds is not proved" `Quick test_oob_not_proved;
    Alcotest.test_case "quickstart footprints (halo box, interior writes)" `Quick
      test_quickstart_footprints;
  ]

(* ------------------------------------------------------------------ *)
(* guard elimination in fused kernels                                  *)
(* ------------------------------------------------------------------ *)

let count_ifs k =
  fold_stmts (fun n s -> match s with If _ -> n + 1 | _ -> n) 0 k.k_body

let test_fused_guard_elimination () =
  let module Cg = Kft_codegen.Codegen in
  let module Fu = Kft_codegen.Fusion in
  let p = Util.quickstart_program () in
  let groups = [ launches p ] in
  let on = Cg.transform ~options:Fu.auto_options Util.device p ~groups in
  let off =
    Cg.transform
      ~options:{ Fu.auto_options with eliminate_guards = false }
      Util.device p ~groups
  in
  let rep =
    List.find (fun (r : Cg.kernel_report) -> r.fusion_kind <> `None) on.reports
  in
  Alcotest.(check bool) "report notes the elimination" true
    (List.exists
       (fun n -> String.length n >= 10 && String.sub n 0 10 = "eliminated")
       rep.notes);
  let fused_of (res : Cg.result) =
    List.find (fun k -> k.k_name = rep.new_kernel) res.program.p_kernels
  in
  Alcotest.(check bool) "the spliced kernel has fewer guards" true
    (count_ifs (fused_of on) < count_ifs (fused_of off));
  (* translation validation: the spliced program still validates against
     the source, and is bit-identical to the unspliced build *)
  let v = Kft_verify.Verify.validate ~source:p on in
  Alcotest.(check bool) "kft_verify validates the spliced build" true
    (Kft_verify.Verify.is_clean v && v.complete);
  match
    Kft_sim.Profiler.verify ~tol:0.0 Util.device ~original:off.program
      ~transformed:on.program
  with
  | Ok () -> ()
  | Error diffs ->
      Alcotest.failf "guard elimination changed results on %s"
        (String.concat "," (List.map fst diffs))

let suite =
  suite
  @ [
      Alcotest.test_case "fused quickstart: provably-true guard eliminated and validated"
        `Quick test_fused_guard_elimination;
    ]

(* ------------------------------------------------------------------ *)
(* soundness: every dynamic global access of the reference interpreter *)
(* falls inside the static footprint                                   *)
(* ------------------------------------------------------------------ *)

let prop_footprint_sound =
  QCheck.Test.make ~name:"footprints contain every dynamic global access" ~count:20
    (QCheck.make
       ~print:(fun s -> Kft_cuda.Pp.program (Test_endtoend.program_of_spec s))
       Test_endtoend.spec_gen)
    (fun spec ->
      let prog = Test_endtoend.program_of_spec spec in
      match Kft_cuda.Check.program prog with
      | _ :: _ -> QCheck.assume_fail ()
      | [] -> (
          let mem = Kft_sim.Memory.create prog.p_arrays in
          Kft_sim.Memory.init_seeded mem ~seed:7;
          let violations = ref [] in
          List.iter
            (fun l ->
              let r =
                match A.analyze_launch prog l with
                | Some r -> r
                | None -> QCheck.Test.fail_reportf "analyze_launch failed for %s" l.l_kernel
              in
              Kft_sim.Interp.access_trace :=
                Some
                  (fun ~write arr i ->
                    let ok =
                      match List.assoc_opt arr r.A.res_footprints with
                      | None -> false
                      | Some fp -> (
                          match (if write then fp.A.fp_writes else fp.A.fp_reads) with
                          | None -> false
                          | Some itv -> itv.A.lo <= i && i <= itv.A.hi)
                    in
                    if not ok then
                      violations :=
                        Printf.sprintf "%s: %s %s[%d] outside footprint" l.l_kernel
                          (if write then "write" else "read")
                          arr i
                        :: !violations);
              Fun.protect
                ~finally:(fun () -> Kft_sim.Interp.access_trace := None)
                (fun () -> ignore (Kft_sim.Interp.launch ~backend:Kft_sim.Interp.Interpret mem prog l)))
            (launches prog);
          match !violations with
          | [] -> true
          | v ->
              QCheck.Test.fail_reportf "unsound footprints:\n%s\nprogram:\n%s"
                (String.concat "\n" (List.sort_uniq compare v))
                (Kft_cuda.Pp.program prog)))

(* ------------------------------------------------------------------ *)
(* deterministic diagnostic ordering in kft_verify                     *)
(* ------------------------------------------------------------------ *)

module V = Kft_verify.Verify

(* a program whose halo read trips the sampled bounds walker *)
let oob_program name =
  let src =
    Printf.sprintf
      {|
__global__ void %s(const double *A, double *B, int nx, int ny) {
  int gi = blockIdx.x * blockDim.x + threadIdx.x;
  int gj = blockIdx.y * blockDim.y + threadIdx.y;
  if (gi < nx && gj < ny) {
    B[gj * nx + gi] = A[gj * nx + gi - 1];
  }
}
|}
      name
  in
  let nx, ny = (32, 8) in
  {
    p_name = name;
    p_arrays =
      List.map (fun a -> { a_name = a; a_elem_ty = Double; a_dims = [ nx; ny ] }) [ "A"; "B" ];
    p_kernels = Kft_cuda.Parse.kernels src;
    p_schedule =
      [
        Launch
          {
            l_kernel = name;
            l_domain = (nx, ny, 1);
            l_block = (16, 4, 1);
            l_args = [ Arg_array "A"; Arg_array "B"; Arg_int nx; Arg_int ny ];
          };
      ];
  }

let test_diagnostic_ordering () =
  let r1 = V.verify_program (oob_program "zeta") in
  let r2 = V.verify_program (oob_program "alpha") in
  Alcotest.(check bool) "both find defects" true
    (r1.V.diagnostics <> [] && r2.V.diagnostics <> []);
  let d12 = (V.merge r1 r2).V.diagnostics in
  let d21 = (V.merge r2 r1).V.diagnostics in
  Alcotest.(check bool) "merge order does not change the report" true (d12 = d21);
  let keys =
    List.map
      (fun (d : V.diagnostic) ->
        (d.d_kernel, d.d_loc.Kft_cuda.Loc.line, d.d_loc.Kft_cuda.Loc.col))
      d12
  in
  Alcotest.(check bool) "diagnostics sorted by (kernel, line, col)" true
    (keys = List.sort compare keys);
  Alcotest.(check bool) "merge deduplicates self-merge" true
    ((V.merge r1 r1).V.diagnostics = r1.V.diagnostics)

(* ------------------------------------------------------------------ *)
(* lint surface                                                        *)
(* ------------------------------------------------------------------ *)

module L = Kft_absint.Lint

let lint_programs () =
  List.map
    (fun (a : Kft_apps.Apps.app) -> a.program)
    (Kft_apps.Apps.quickstart () :: Kft_apps.Apps.all ())

let test_lint_jobs_stable () =
  let ps = lint_programs () in
  let j1 = L.render_json (L.programs ~jobs:1 ps) in
  let j4 = L.render_json (L.programs ~jobs:4 ps) in
  Alcotest.(check string) "JSON byte-stable across --jobs" j1 j4

let test_lint_golden_quickstart () =
  let p = (Kft_apps.Apps.quickstart ()).program in
  let fs = L.program p in
  Alcotest.(check (list string))
    "golden quickstart findings"
    [
      "quickstart:diffuse:5:3: info [divergent-guard] thread-dependent guard (i >= 1 \
       && i < nx - 1 && j >= 1 && j < ny - 1) forces warp divergence: modeled \
       serialization factor 1.30";
      "quickstart:relax:28:3: info [dead-guard] guard (i < nx && j < ny) is \
       statically true: branch can be spliced away";
      "quickstart:smooth:17:3: info [divergent-guard] thread-dependent guard (i >= 2 \
       && i < nx - 2 && j >= 2 && j < ny - 2) forces warp divergence: modeled \
       serialization factor 1.59";
    ]
    (List.map L.render fs)

let test_lint_golden_awp () =
  let a =
    List.find
      (fun (a : Kft_apps.Apps.app) -> a.app_name = "AWP-ODC-GPU")
      (Kft_apps.Apps.all ())
  in
  let fs = L.program a.program in
  let count rule = List.length (List.filter (fun (f : L.finding) -> f.f_rule = rule) fs) in
  Alcotest.(check int) "no warnings" 0 (L.warnings fs);
  Alcotest.(check int) "twelve findings" 12 (List.length fs);
  Alcotest.(check int) "eight dead guards" 8 (count "dead-guard");
  Alcotest.(check int) "four divergent guards" 4 (count "divergent-guard")

let test_footprint_drift () =
  let p = (Kft_apps.Apps.quickstart ()).program in
  let r = List.hd (analyze_all p) in
  Alcotest.(check string) "first launch is diffuse" "diffuse" r.res_kernel;
  Alcotest.(check bool) "diffuse estimate is exact" true r.res_est_exact;
  let est = r.res_est_bytes in
  Alcotest.(check bool) "estimate is positive" true (est > 0.0);
  let drifted = L.program ~measured:[ ("diffuse", est *. 2.0) ] p in
  Alcotest.(check bool) "2x disagreement fires footprint-drift" true
    (List.exists
       (fun (f : L.finding) -> f.f_rule = "footprint-drift" && f.f_severity = L.Warn)
       drifted);
  let agreeing = L.program ~measured:[ ("diffuse", est) ] p in
  Alcotest.(check bool) "agreement is silent" true
    (not (List.exists (fun (f : L.finding) -> f.f_rule = "footprint-drift") agreeing))

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_footprint_sound;
      Alcotest.test_case "kft_verify: merged diagnostics are deterministically ordered"
        `Quick test_diagnostic_ordering;
      Alcotest.test_case "lint: JSON byte-stable across jobs" `Quick test_lint_jobs_stable;
      Alcotest.test_case "lint: golden quickstart report" `Quick test_lint_golden_quickstart;
      Alcotest.test_case "lint: golden AWP-ODC-GPU rule counts" `Quick test_lint_golden_awp;
      Alcotest.test_case "lint: footprint-drift cross-check" `Quick test_footprint_drift;
    ]
