(* kft_verify: static race / barrier / bounds verification and
   translation validation.

   Negative fixtures are written as CUDA text and parsed, so the
   diagnostics also exercise the source-position plumbing (satellite of
   the same PR): a defect must be reported with the kernel name and a
   real line/column. *)

open Kft_cuda.Ast
module V = Kft_verify.Verify
module F = Kft_framework.Framework

let dims = (32, 8, 4)

let program_of ?(block = (16, 4, 1)) ~arrays ~src launches =
  let nx, ny, nz = dims in
  {
    p_name = "fixture";
    p_arrays =
      List.map (fun a -> { a_name = a; a_elem_ty = Double; a_dims = [ nx; ny; nz ] }) arrays;
    p_kernels = Kft_cuda.Parse.kernels src;
    p_schedule =
      List.map
        (fun (kernel, args) ->
          Launch { l_kernel = kernel; l_domain = (nx, ny, 1); l_block = block; l_args = args })
        launches;
  }

let has_pass pass (r : V.report) =
  List.exists (fun (d : V.diagnostic) -> d.d_pass = pass) r.diagnostics

let diag_of pass (r : V.report) =
  List.find (fun (d : V.diagnostic) -> d.d_pass = pass) r.diagnostics

(* ------------------------------------------------------------------ *)
(* negative fixtures                                                   *)
(* ------------------------------------------------------------------ *)

let test_shared_race () =
  (* every thread of a row writes s[ty][0]: intra-interval WW race *)
  let src =
    {|
__global__ void collide(const double *A, double *B, int nx, int ny) {
  int tx = threadIdx.x;
  int ty = threadIdx.y;
  int gi = blockIdx.x * blockDim.x + tx;
  int gj = blockIdx.y * blockDim.y + ty;
  __shared__ double s[4][16];
  s[ty][0] = A[gj * nx + gi];
  __syncthreads();
  if (gi < nx && gj < ny) {
    B[gj * nx + gi] = s[ty][0];
  }
}
|}
  in
  let nx, ny, _ = dims in
  let prog =
    program_of ~arrays:[ "A"; "B" ] ~src
      [ ("collide", [ Arg_array "A"; Arg_array "B"; Arg_int nx; Arg_int ny ]) ]
  in
  let r = V.verify_program prog in
  Alcotest.(check bool) "race reported" true (has_pass V.Race r);
  let d = diag_of V.Race r in
  Alcotest.(check string) "kernel named" "collide" d.d_kernel;
  Alcotest.(check bool) "carries a source line" true (d.d_loc.line > 0);
  Alcotest.(check bool) "names the tile" true
    (let open String in
     length d.d_message > 0 && d.d_stmt <> "")

let test_divergent_barrier () =
  let src =
    {|
__global__ void divb(double *B, int nx, int ny) {
  int tx = threadIdx.x;
  int gi = blockIdx.x * blockDim.x + tx;
  int gj = blockIdx.y * blockDim.y + threadIdx.y;
  if (tx < 8) {
    __syncthreads();
  }
  if (gi < nx && gj < ny) {
    B[gj * nx + gi] = 1.0;
  }
}
|}
  in
  let nx, ny, _ = dims in
  let prog =
    program_of ~arrays:[ "B" ] ~src
      [ ("divb", [ Arg_array "B"; Arg_int nx; Arg_int ny ]) ]
  in
  let r = V.verify_program prog in
  Alcotest.(check bool) "barrier divergence reported" true (has_pass V.Barrier r);
  let d = diag_of V.Barrier r in
  Alcotest.(check string) "kernel named" "divb" d.d_kernel;
  Alcotest.(check bool) "carries a source line" true (d.d_loc.line > 0);
  (* the frontend checker (same PR) rejects it statically too *)
  let k = List.find (fun k -> k.k_name = "divb") prog.p_kernels in
  Alcotest.(check bool) "Check.kernel rejects it" true (Kft_cuda.Check.kernel k <> [])

let test_oob_halo () =
  (* unguarded left-halo read: thread (0,_) of block (0,_) reads A[-1] *)
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
  let nx, ny, _ = dims in
  let prog =
    program_of ~arrays:[ "A"; "B" ] ~src
      [ ("oob", [ Arg_array "A"; Arg_array "B"; Arg_int nx; Arg_int ny ]) ]
  in
  let r = V.verify_program prog in
  Alcotest.(check bool) "bounds violation reported" true (has_pass V.Bounds r);
  let d = diag_of V.Bounds r in
  Alcotest.(check string) "kernel named" "oob" d.d_kernel;
  Alcotest.(check bool) "carries a source line" true (d.d_loc.line > 0);
  Alcotest.(check bool) "message names the array" true
    (let rec contains i =
       i + 1 <= String.length d.d_message && (String.sub d.d_message i 1 = "A" || contains (i + 1))
     in
     contains 0)

let test_order_violation () =
  (* producer/consumer fused in the wrong member order: check_group
     accepts it (origin-only WAR), but the member order contradicts the
     source DDG, which translation validation must reject *)
  let src =
    String.concat "\n"
      [
        Util.pointwise_src ~name:"produce" ~a:"A" ~b:"A" ~dst:"V";
        Util.pointwise_src ~name:"consume" ~a:"V" ~b:"V" ~dst:"W";
      ]
  in
  let nx, ny, nz = dims in
  let args arrays = Util.std_args (nx, ny, nz) arrays 0.5 in
  let prog =
    program_of ~arrays:[ "A"; "V"; "W" ] ~src
      [ ("produce", args [ "A"; "A"; "V" ]); ("consume", args [ "V"; "V"; "W" ]) ]
  in
  let launches =
    List.filter_map (function Launch l -> Some l | _ -> None) prog.p_schedule
  in
  let reversed = [ List.rev launches ] in
  let res =
    Kft_codegen.Codegen.transform Util.device prog ~groups:reversed
  in
  let fused =
    List.exists
      (fun (r : Kft_codegen.Codegen.kernel_report) -> r.fusion_kind <> `None)
      res.reports
  in
  Alcotest.(check bool) "the reversed group does fuse" true fused;
  let r = V.validate ~source:prog res in
  Alcotest.(check bool) "order violation reported" true (has_pass V.Translation r);
  let d = diag_of V.Translation r in
  Alcotest.(check bool) "diagnostic names the fused kernel" true
    (String.length d.d_kernel > 0 && d.d_kernel <> "produce" && d.d_kernel <> "consume")

let test_clean_program_is_clean () =
  let prog = Util.producer_consumer_program () in
  let r = V.verify_program prog in
  Alcotest.(check bool) "clean" true (V.is_clean r);
  Alcotest.(check bool) "complete" true r.complete;
  Alcotest.(check int) "every checked launch has a race verdict"
    r.stats.launches_checked
    (r.stats.race_proved + r.stats.race_fallback)

(* ------------------------------------------------------------------ *)
(* six applications: sources verify clean; pipeline output validates   *)
(* ------------------------------------------------------------------ *)

let test_apps_sources_clean () =
  List.iter
    (fun (a : Kft_apps.Apps.app) ->
      let r = V.verify_program a.program in
      Alcotest.(check bool) (a.app_name ^ " clean") true (V.is_clean r);
      Alcotest.(check bool) (a.app_name ^ " complete") true r.complete)
    (Kft_apps.Apps.all ())

let small_config =
  {
    F.default_config with
    verify_mode = F.Verify_fatal;
    gga_params = { Kft_gga.Gga.default_params with population = 10; generations = 8 };
  }

let test_pipeline_validates () =
  (* one representative app end-to-end under the fatal gate (the [verify]
     alias covers all six) *)
  let app = Kft_apps.Apps.mitgcm () in
  let rep = F.transform ~config:small_config app.program in
  Alcotest.(check bool) "verify_report clean" true (V.is_clean rep.verify_report);
  Alcotest.(check bool) "no rejected groups" true (rep.rejected_groups = []);
  Alcotest.(check bool) "some launches checked" true
    (rep.verify_report.stats.launches_checked > 0)

(* a race-free kernel outside the affine fragment: [min] hides the
   write index from the proof, so the launch falls back to the walker *)
let walked_program () =
  let src =
    {|
__global__ void clamp(const double *A, double *B, int nx, int ny) {
  int gi = blockIdx.x * blockDim.x + threadIdx.x;
  int gj = blockIdx.y * blockDim.y + threadIdx.y;
  if (gi < nx && gj < ny) {
    B[gj * nx + min(gi, nx - 1)] = A[gj * nx + gi];
  }
}
|}
  in
  let nx, ny, _ = dims in
  program_of ~arrays:[ "A"; "B" ] ~src
    [ ("clamp", [ Arg_array "A"; Arg_array "B"; Arg_int nx; Arg_int ny ]) ]

let test_budget_exhaustion () =
  let prog = walked_program () in
  let full = V.verify_program prog in
  Alcotest.(check int) "the launch falls back to the walker" 1 full.stats.race_fallback;
  Alcotest.(check bool) "clean with the default budget" true (V.is_clean full && full.complete);
  let r = V.verify_program ~budget:100 prog in
  Alcotest.(check bool) "incomplete under a tiny budget" true (not r.complete);
  Alcotest.(check bool) "not clean (engine note)" true (not (V.is_clean r));
  Alcotest.(check int) "an exhausted launch is not counted as checked" 0
    r.stats.launches_checked

(* the fatal gate fails an incomplete report even when it carries no
   diagnostic, and names how many launches went unchecked *)
let test_fatal_failure () =
  let stats n = { V.empty_report.stats with launches_checked = n } in
  Alcotest.(check (option string)) "clean and complete passes" None
    (V.fatal_failure ~launches:44 { V.empty_report with stats = stats 44 });
  Alcotest.(check (option string)) "incomplete without diagnostics fails"
    (Some "static verification incomplete: 3 of 44 launches unchecked")
    (V.fatal_failure ~launches:44 { V.empty_report with complete = false; stats = stats 41 });
  Alcotest.(check (option string)) "defects and incompleteness are both named"
    (Some "static verification found 1 defects and is incomplete: 1 of 1 launches unchecked")
    (V.fatal_failure ~launches:1 (V.verify_program ~budget:100 (walked_program ())))

(* The walker's duplicate-write tolerance: threads that differ only
   along a thread axis the kernel never reads replicate a write, and
   that is not a race; two threads of one block that differ along an
   axis the kernel reads and write one cell are, even from one
   statement. *)
let test_same_site_writes () =
  let src =
    {|
__global__ void halve(const double *A, double *B, int nx, int ny) {
  int gi = blockIdx.x * blockDim.x + threadIdx.x;
  int gj = blockIdx.y * blockDim.y + threadIdx.y;
  if (gi < nx && gj < ny) {
    B[gj * nx + gi / 2] = A[gj * nx + gi];
  }
}
__global__ void rows(const double *A, double *B, int nx) {
  int gi = blockIdx.x * blockDim.x + threadIdx.x;
  if (gi < nx) {
    B[gi] = A[gi];
  }
}
|}
  in
  let nx, ny, _ = dims in
  let halve =
    program_of ~arrays:[ "A"; "B" ] ~src
      [ ("halve", [ Arg_array "A"; Arg_array "B"; Arg_int nx; Arg_int ny ]) ]
  in
  let r = V.verify_program halve in
  Alcotest.(check int) "halve falls back" 1 r.stats.race_fallback;
  Alcotest.(check bool) "aliased writes are a race" true (has_pass V.Race r);
  let rows =
    program_of ~arrays:[ "A"; "B" ] ~src [ ("rows", [ Arg_array "A"; Arg_array "B"; Arg_int nx ]) ]
  in
  let r = V.verify_program rows in
  Alcotest.(check int) "rows falls back" 1 r.stats.race_fallback;
  Alcotest.(check bool) "threadIdx.y replicas are not a race" true (V.is_clean r && r.complete)

(* an affine write index that is not injective: rows of 8 cells under a
   16-thread-wide row of threads overlap, so the proof must not cover
   it and the walker must find the write-write race *)
let test_overlapping_rows () =
  let src =
    {|
__global__ void rows8(const double *A, double *B, int nx, int ny) {
  int gi = blockIdx.x * blockDim.x + threadIdx.x;
  int gj = blockIdx.y * blockDim.y + threadIdx.y;
  if (gi < nx && gj < ny) {
    B[gj * 8 + gi] = A[gj * nx + gi];
  }
}
|}
  in
  let nx, ny, _ = dims in
  let prog =
    program_of ~arrays:[ "A"; "B" ] ~src
      [ ("rows8", [ Arg_array "A"; Arg_array "B"; Arg_int nx; Arg_int ny ]) ]
  in
  let r = V.verify_program prog in
  Alcotest.(check int) "not proved" 1 r.stats.race_fallback;
  Alcotest.(check bool) "write-write race reported" true (has_pass V.Race r)

(* a barrier loop whose tail touches the tile: the tail of iteration kv
   and the head of iteration kv + 1 share a barrier interval, so the
   loop counter is not fixed there and thread tx - 1 of the next
   iteration overwrites the cell thread tx still reads *)
let test_barrier_loop_wraparound () =
  let src =
    {|
__global__ void wrap(const double *A, double *B, int nx, int ny) {
  int tx = threadIdx.x;
  int gi = blockIdx.x * blockDim.x + tx;
  int gj = blockIdx.y * blockDim.y + threadIdx.y;
  __shared__ double s[4][24];
  for (int kv = 0; kv < 4; kv++) {
    s[threadIdx.y][tx + kv] = A[gj * nx + gi];
    __syncthreads();
    B[gj * nx + gi] = s[threadIdx.y][tx + kv];
  }
}
|}
  in
  let nx, ny, _ = dims in
  let prog =
    program_of ~arrays:[ "A"; "B" ] ~src
      [ ("wrap", [ Arg_array "A"; Arg_array "B"; Arg_int nx; Arg_int ny ]) ]
  in
  let r = V.verify_program prog in
  Alcotest.(check int) "not proved" 1 r.stats.race_fallback;
  Alcotest.(check bool) "shared race reported" true (has_pass V.Race r)

(* every launch of the seven source programs is covered by the proof *)
let test_sources_race_proved () =
  List.iter
    (fun (name, p) ->
      let r = V.verify_program p in
      Alcotest.(check int) (name ^ ": no race fallback") 0 r.stats.race_fallback;
      Alcotest.(check int) (name ^ ": no thread walked") 0 r.stats.threads_walked)
    (("quickstart", Util.quickstart_program ())
    :: List.map (fun (a : Kft_apps.Apps.app) -> (a.app_name, a.program)) (Kft_apps.Apps.all ()))

(* the statement-rendering memo dies with its verification run: a
   verified AST is not kept alive by the verifier afterwards *)
let memo_probe = Weak.create 1

(* built from a runtime argument, so the AST is allocated on the heap
   rather than emitted as a static constant *)
let[@inline never] verify_once last =
  let gi =
    Binop (Add, Binop (Mul, Builtin (Block_idx X), Builtin (Block_dim X)), Builtin (Thread_idx X))
  in
  (* [min] keeps the write out of the proof, so the walker renders it *)
  let store = Assign (Lindex ("B", [ Call ("min", [ gi; Int_lit last ]) ]), Double_lit 1.0) in
  let k =
    {
      k_name = "k";
      k_params = [ Array_param { name = "B"; elem_ty = Double; quals = [] } ];
      k_body = [ store ];
    }
  in
  let prog =
    {
      p_name = "memo";
      p_arrays = [ { a_name = "B"; a_elem_ty = Double; a_dims = [ 64 ] } ];
      p_kernels = [ k ];
      p_schedule =
        [ Launch { l_kernel = "k"; l_domain = (64, 1, 1); l_block = (32, 1, 1); l_args = [ Arg_array "B" ] } ];
    }
  in
  Weak.set memo_probe 0 (Some store);
  (V.verify_program prog).stats.race_fallback

let test_memo_releases_asts () =
  Alcotest.(check int) "walked" 1 (verify_once 63);
  Gc.full_major ();
  Alcotest.(check bool) "statement collected" false (Weak.check memo_probe 0)

(* the proved out-of-bounds diagnostic, pinned verbatim *)
let test_proved_oob_message () =
  let src =
    {|
__global__ void far(const double *A, double *B, int nx, int ny) {
  int gi = blockIdx.x * blockDim.x + threadIdx.x;
  int gj = blockIdx.y * blockDim.y + threadIdx.y;
  if (gi < nx && gj < ny) {
    B[gj * nx + gi + 4096] = A[gj * nx + gi];
  }
}
|}
  in
  let nx, ny, _ = dims in
  let prog =
    program_of ~arrays:[ "A"; "B" ] ~src
      [ ("far", [ Arg_array "A"; Arg_array "B"; Arg_int nx; Arg_int ny ]) ]
  in
  let r = V.verify_program prog in
  let d = diag_of V.Bounds r in
  Alcotest.(check string) "message"
    "out-of-bounds write of B: proved index range [4096,4351] entirely outside extent of 1024 \
     cells"
    d.d_message

(* ------------------------------------------------------------------ *)
(* mutation battery: injected defects in fused programs are diagnosed  *)
(* ------------------------------------------------------------------ *)

(* Rewrite the first statement list, in pre-order over the statement
   tree, on which [f] succeeds. *)
let rec rewrite_first f stmts =
  match f stmts with
  | Some stmts' -> Some stmts'
  | None ->
      let rec go acc = function
        | [] -> None
        | s :: rest -> (
            let inner =
              match s with
              | If (c, t, e) -> (
                  match rewrite_first f t with
                  | Some t' -> Some (If (c, t', e))
                  | None -> Option.map (fun e' -> If (c, t, e')) (rewrite_first f e))
              | For l -> Option.map (fun b -> For { l with body = b }) (rewrite_first f l.body)
              | _ -> None
            in
            match inner with
            | Some s' -> Some (List.rev_append acc (s' :: rest))
            | None -> go (s :: acc) rest)
      in
      go [] stmts

(* replace the first element of a list satisfying [f] *)
let replace_first f l =
  let rec go acc = function
    | [] -> None
    | x :: rest -> (
        match f x with
        | Some ys -> Some (List.rev_append acc (ys @ rest))
        | None -> go (x :: acc) rest)
  in
  go [] l

let shared_names k =
  fold_stmts (fun acc s -> match s with Shared_decl (_, n, _) -> n :: acc | _ -> acc) [] k.k_body

let reads_any names stmts =
  fold_exprs_in_stmts
    (fold_expr (fun acc e -> acc || match e with Index (a, _) -> List.mem a names | _ -> false))
    false stmts

let writes_any names stmts =
  fold_stmts
    (fun acc s -> acc || match s with Assign (Lindex (a, _), _) -> List.mem a names | _ -> false)
    false stmts

(* drop the first barrier that separates writes of a shared tile from
   the statement after it reading that tile *)
let drop_sync shared stmts =
  let arr = Array.of_list stmts in
  let n = Array.length arr in
  let rec find i seg_start =
    if i >= n - 1 then None
    else if arr.(i) = Syncthreads then
      let before = Array.to_list (Array.sub arr seg_start (i - seg_start)) in
      let tiles = List.filter (fun a -> writes_any [ a ] before) shared in
      if tiles <> [] && reads_any tiles [ arr.(i + 1) ] then Some i else find (i + 1) (i + 1)
    else find (i + 1) seg_start
  in
  Option.map (fun i -> List.filteri (fun j _ -> j <> i) stmts) (find 0 0)

(* shift the first subscript of the first shared-tile write by one *)
let shift_shared shared =
  replace_first (function
    | Assign (Lindex (a, i0 :: rest), e) when List.mem a shared ->
        Some [ Assign (Lindex (a, Binop (Add, i0, Int_lit 1) :: rest), e) ]
    | _ -> None)

(* alias the first global write indexed by gi: gi -> gi / 2 *)
let alias_global shared =
  let uses_gi e = fold_expr (fun acc e -> acc || e = Var "gi") false e in
  replace_first (function
    | Assign (Lindex (a, [ idx ]), e) when (not (List.mem a shared)) && uses_gi idx ->
        let idx' = map_expr (function Var "gi" -> Binop (Div, Var "gi", Int_lit 2) | e -> e) idx in
        Some [ Assign (Lindex (a, [ idx' ]), e) ]
    | _ -> None)

(* remove the guard complement of the first halo preload *)
let drop_complement shared =
  replace_first (function
    | If (_, [], [ (Assign (Lindex (a, _), Index _) as load) ]) when List.mem a shared ->
        Some [ load ]
    | _ -> None)

let mutations =
  [
    ("dropped __syncthreads()", drop_sync, [ V.Race ]);
    ("shared subscript shifted by one", shift_shared, [ V.Race; V.Bounds ]);
    ("global write index aliased (gi -> gi / 2)", alias_global, [ V.Race ]);
    ("halo preload without its guard complement", drop_complement, [ V.Race ]);
  ]

(* apply [mutate] to the first fused kernel holding shared tiles *)
let mutate_program (p : program) mutate =
  match List.find_opt (fun k -> shared_names k <> []) p.p_kernels with
  | None -> None
  | Some k ->
      Option.map
        (fun body ->
          {
            p with
            p_kernels =
              List.map (fun k' -> if k'.k_name = k.k_name then { k with k_body = body } else k') p.p_kernels;
          })
        (rewrite_first (mutate (shared_names k)) k.k_body)

let check_battery what (p : program) =
  Alcotest.(check bool) (what ^ ": unmutated program is clean") true (V.is_clean (V.verify_program p));
  List.iter
    (fun (name, mutate, passes) ->
      match mutate_program p mutate with
      | None -> Alcotest.failf "%s: no site for mutation %s" what name
      | Some m ->
          let r = V.verify_program m in
          if not (List.exists (fun pass -> has_pass pass r) passes) then
            Alcotest.failf "%s: mutation %s is not diagnosed (%d diagnostics: %s)" what name
              (List.length r.diagnostics)
              (String.concat "; " (List.map V.pp_diagnostic r.diagnostics)))
    mutations

(* a 2-D stencil producer fused with a stencil consumer of its output:
   a produced tile with a guard-complement halo preload *)
let fused_chain () =
  let nx, ny, nz = (32, 16, 8) in
  let src =
    Util.stencil_src ~name:"produce" ~src:"A" ~dst:"B" ~margin:1 ~threed:false
    ^ Util.stencil_src ~name:"consume" ~src:"B" ~dst:"C" ~margin:2 ~threed:false
  in
  let launch k arrays =
    { l_kernel = k; l_domain = (nx, ny, 1); l_block = (16, 4, 1);
      l_args = Util.std_args (nx, ny, nz) arrays 0.5 }
  in
  let l1 = launch "produce" [ "A"; "B" ] and l2 = launch "consume" [ "B"; "C" ] in
  let prog =
    {
      p_name = "chain";
      p_arrays = List.map (Util.arr3 (nx, ny, nz)) [ "A"; "B"; "C" ];
      p_kernels = Kft_cuda.Parse.kernels src;
      p_schedule = [ Launch l1; Launch l2 ];
    }
  in
  (Kft_codegen.Codegen.transform Util.device prog ~groups:[ [ l1; l2 ] ]).program

let test_mutations_fused () = check_battery "fused chain" (fused_chain ())

(* the first fuzzed chain (fixed seeds) whose fused form stages a
   produced tile, i.e. offers every mutation site *)
let test_mutations_fuzzed () =
  let rec pick seed =
    if seed > 500 then Alcotest.fail "no fuzzed chain with a produced tile in 500 seeds"
    else
      let s = QCheck.Gen.generate1 ~rand:(Random.State.make [| seed |]) Util.fuzz_sample_gen in
      let p = s.Util.fz_program in
      let launches = List.filter_map (function Launch l -> Some l | _ -> None) p.p_schedule in
      let fused =
        try Some (Kft_codegen.Codegen.transform Util.device p ~groups:[ launches ]).program
        with _ -> None
      in
      match fused with
      | Some f when List.for_all (fun (_, m, _) -> mutate_program f m <> None) mutations -> f
      | _ -> pick (seed + 1)
  in
  check_battery "fuzzed chain" (pick 0)

(* ------------------------------------------------------------------ *)
(* differential: a proved launch is race-free for the walker too       *)
(* ------------------------------------------------------------------ *)

let check_differential what (proof : V.report) (p : program) =
  let walked = V.verify_program ~budget:max_int ~walk:true p in
  Alcotest.(check bool) (what ^ ": walk complete") true walked.complete;
  List.iter
    (fun (d : V.diagnostic) ->
      if d.d_pass = V.Race && not (List.mem_assoc d.d_kernel proof.race_fallbacks) then
        Alcotest.failf "%s: proof says %s is race-free, the walker says %s" what d.d_kernel
          (V.pp_diagnostic d))
    walked.diagnostics

let test_differential () =
  let programs =
    ("quickstart", Util.quickstart_program ())
    :: List.map (fun (a : Kft_apps.Apps.app) -> (a.app_name, a.program)) (Kft_apps.Apps.all ())
  in
  List.iter
    (fun (name, p) ->
      check_differential (name ^ " (source)") (V.verify_program p) p;
      let rep = F.transform ~config:small_config p in
      check_differential (name ^ " (transformed)") rep.verify_report rep.transformed)
    programs

(* the same check over fuzzed chains, their fused form and every mutant
   of it: the mutants are racy, so a wrong proof would show here *)
let prop_differential_fuzzed =
  QCheck.Test.make ~name:"proved launches of fuzzed, fused and mutated chains are race-free"
    ~count:40 Util.fuzz_sample_arb (fun s ->
      let p = s.Util.fz_program in
      let launches = List.filter_map (function Launch l -> Some l | _ -> None) p.p_schedule in
      let fused =
        try [ (Kft_codegen.Codegen.transform Util.device p ~groups:[ launches ]).program ]
        with _ -> []
      in
      let mutants =
        List.concat_map
          (fun f -> List.filter_map (fun (_, m, _) -> mutate_program f m) mutations)
          fused
      in
      List.iter
        (fun q -> check_differential "fuzzed" (V.verify_program q) q)
        ((p :: fused) @ mutants);
      true)

(* ------------------------------------------------------------------ *)
(* round-trip: Parse (Pp.kernels k) == k                               *)
(* ------------------------------------------------------------------ *)

let roundtrip_kernels what kernels =
  let text = Kft_cuda.Pp.kernels kernels in
  let parsed = Kft_cuda.Parse.kernels text in
  Alcotest.(check int) (what ^ ": kernel count") (List.length kernels) (List.length parsed);
  List.iter2
    (fun (k : kernel) (k' : kernel) ->
      if k <> k' then
        Alcotest.failf "%s: kernel %s does not round-trip:\n%s\n  !=\n%s" what k.k_name
          (Kft_cuda.Pp.kernel k) (Kft_cuda.Pp.kernel k'))
    kernels parsed

let test_roundtrip_apps () =
  List.iter
    (fun (a : Kft_apps.Apps.app) -> roundtrip_kernels a.app_name a.program.p_kernels)
    (Kft_apps.Apps.all ())

let test_roundtrip_fused () =
  let app = Kft_apps.Apps.bcalm () in
  let rep = F.transform ~config:small_config app.program in
  let fused_names =
    List.filter_map
      (fun (r : Kft_codegen.Codegen.kernel_report) ->
        if r.fusion_kind <> `None then Some r.new_kernel else None)
      rep.codegen.reports
  in
  Alcotest.(check bool) "some kernels fused" true (fused_names <> []);
  let fused =
    List.filter (fun k -> List.mem k.k_name fused_names) rep.transformed.p_kernels
  in
  roundtrip_kernels "fused kernels" fused

let suite =
  [
    Alcotest.test_case "shared-memory race is reported with location" `Quick test_shared_race;
    Alcotest.test_case "divergent barrier is reported (verifier + checker)" `Quick
      test_divergent_barrier;
    Alcotest.test_case "out-of-bounds halo read is reported" `Quick test_oob_halo;
    Alcotest.test_case "DDG order violation fails translation validation" `Quick
      test_order_violation;
    Alcotest.test_case "clean producer/consumer program verifies clean" `Quick
      test_clean_program_is_clean;
    Alcotest.test_case "fatal gate fails incomplete reports" `Quick test_fatal_failure;
    Alcotest.test_case "six application sources verify clean" `Quick test_apps_sources_clean;
    Alcotest.test_case "pipeline output validates under the fatal gate" `Quick
      test_pipeline_validates;
    Alcotest.test_case "event budget exhaustion is reported, not wrong" `Quick
      test_budget_exhaustion;
    Alcotest.test_case "proved out-of-bounds message is exact" `Quick test_proved_oob_message;
    Alcotest.test_case "verified ASTs are not retained" `Quick test_memo_releases_asts;
    Alcotest.test_case "walker: aliased writes race, unread-axis replicas do not" `Quick
      test_same_site_writes;
    Alcotest.test_case "seven source programs are race-proved" `Quick test_sources_race_proved;
    Alcotest.test_case "non-injective affine writes are not proved" `Quick test_overlapping_rows;
    Alcotest.test_case "barrier-loop wrap-around is not proved" `Quick
      test_barrier_loop_wraparound;
    Alcotest.test_case "mutations of a fused chain are diagnosed" `Quick test_mutations_fused;
    Alcotest.test_case "mutations of a fused fuzzed chain are diagnosed" `Quick
      test_mutations_fuzzed;
    Alcotest.test_case "proved launches are race-free for the walker (7 programs)" `Slow
      test_differential;
    QCheck_alcotest.to_alcotest prop_differential_fuzzed;
  ]

let roundtrip_suite =
  [
    Alcotest.test_case "app kernels round-trip through Pp.kernels/Parse" `Quick
      test_roundtrip_apps;
    Alcotest.test_case "fused kernels round-trip through Pp.kernels/Parse" `Quick
      test_roundtrip_fused;
  ]
