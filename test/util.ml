(* Shared helpers for the test suites. *)

open Kft_cuda.Ast

let device = Kft_device.Device.k20x

(* a 3D array declaration sized (nx, ny, nz) *)
let arr3 (nx, ny, nz) name = { a_name = name; a_elem_ty = Double; a_dims = [ nx; ny; nz ] }

(* standard launch args for the kernels produced by [stencil_src] *)
let std_args dims arrays coef =
  let nx, ny, nz = dims in
  List.map (fun a -> Arg_array a) arrays @ [ Arg_int nx; Arg_int ny; Arg_int nz; Arg_double coef ]

(* CUDA source for a guarded 7-point (or 5-point) stencil kernel *)
let stencil_src ~name ~src ~dst ~margin ~threed =
  let z_terms =
    if threed then
      Printf.sprintf
        "+ %s[((k + 1) * ny + j) * nx + i] + %s[((k - 1) * ny + j) * nx + i]" src src
    else ""
  in
  Printf.sprintf
    {|
__global__ void %s(const double *%s, double *%s, int nx, int ny, int nz, double c) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i >= %d && i < nx - %d && j >= %d && j < ny - %d) {
    for (int k = %d; k < nz - %d; k++) {
      %s[(k * ny + j) * nx + i] = c * (%s[(k * ny + j) * nx + i + 1] + %s[(k * ny + j) * nx + i - 1]
        + %s[(k * ny + (j + 1)) * nx + i] + %s[(k * ny + (j - 1)) * nx + i] %s);
    }
  }
}
|}
    name src dst margin margin margin margin
    (if threed then margin else 0)
    (if threed then margin else 0)
    dst src src src src z_terms

(* pointwise kernel: dst = c * (a + b) *)
let pointwise_src ~name ~a ~b ~dst =
  Printf.sprintf
    {|
__global__ void %s(const double *%s, const double *%s, double *%s, int nx, int ny, int nz, double c) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (i < nx && j < ny) {
    for (int k = 0; k < nz; k++) {
      %s[(k * ny + j) * nx + i] = c * (%s[(k * ny + j) * nx + i] + %s[(k * ny + j) * nx + i]);
    }
  }
}
|}
    name a b dst dst a b

(* two-kernel producer/consumer program used across suites *)
let producer_consumer_program ?(dims = (32, 16, 8)) ?(block = (16, 4, 1)) () =
  let nx, ny, _nz = dims in
  ignore _nz;
  let src =
    stencil_src ~name:"produce" ~src:"A" ~dst:"B" ~margin:1 ~threed:true
    ^ pointwise_src ~name:"consume" ~a:"B" ~b:"A" ~dst:"C"
  in
  let kernels = Kft_cuda.Parse.kernels src in
  {
    p_name = "producer_consumer";
    p_arrays = [ arr3 dims "A"; arr3 dims "B"; arr3 dims "C" ];
    p_kernels = kernels;
    p_schedule =
      [
        Launch
          { l_kernel = "produce"; l_domain = (nx, ny, 1); l_block = block;
            l_args = std_args dims [ "A"; "B" ] 0.2 };
        Launch
          { l_kernel = "consume"; l_domain = (nx, ny, 1); l_block = block;
            l_args = std_args dims [ "B"; "A"; "C" ] 0.5 };
      ];
  }

let launch_of prog kernel =
  List.find_map
    (function Launch l when l.l_kernel = kernel -> Some l | _ -> None)
    prog.p_schedule
  |> Option.get

(* float comparison for alcotest *)
let close eps = Alcotest.testable Fmt.float (fun a b -> Float.abs (a -. b) <= eps)

let check_float ?(eps = 1e-9) msg a b = Alcotest.check (close eps) msg a b

let run_to_memory ?(seed = 42) prog =
  let mem = Kft_sim.Memory.create prog.p_arrays in
  Kft_sim.Memory.init_seeded mem ~seed;
  ignore (Kft_sim.Interp.run_schedule mem prog);
  mem

(* The three-kernel program of examples/quickstart.ml, used by the
   absint, sim and verify tests. *)
let quickstart_program () = (Kft_apps.Apps.quickstart ()).program

(* ------------------------------------------------------------------ *)
(* Differential fuzzer: random well-formed stencil programs            *)
(* ------------------------------------------------------------------ *)

(* Random chains of guarded stencil kernels A0 -> A1 -> ... generated
   as CUDA source text from the same template family as [stencil_src],
   then parsed, so every sample is inside the frontend's subset and
   every array access is in bounds by construction: offsets stay within
   the guard margin (|di|,|dj| <= m with i in [m, nx-m), j in [m, ny-m))
   and within the k-loop margin (|dk| <= mk with k in [mk, nz-mk)).
   Coefficients come through the scalar parameter [c] and the only
   float literal is 0.0, so print/parse round-trips are exact. *)

let fuzz_term ~src (di, dj, dk) =
  let part v d =
    if d = 0 then v
    else if d > 0 then Printf.sprintf "(%s + %d)" v d
    else Printf.sprintf "(%s - %d)" v (-d)
  in
  Printf.sprintf "%s[(%s * ny + %s) * nx + %s]" src (part "k" dk) (part "j" dj)
    (part "i" di)

let fuzz_kernel_src ~name ~src ~dst ~m ~mk ~terms ~accum =
  let sum = String.concat " + " (List.map (fun t -> fuzz_term ~src t) terms) in
  let dst_idx = Printf.sprintf "%s[(k * ny + j) * nx + i]" dst in
  let body =
    match accum with
    | None -> Printf.sprintf "      %s = c * (%s);" dst_idx sum
    | Some rounds ->
        Printf.sprintf
          "      double acc = 0.0;\n\
          \      for (int r = 0; r < %d; r++) {\n\
          \        acc = acc + (%s);\n\
          \      }\n\
          \      %s = c * acc;"
          rounds sum dst_idx
  in
  let guard =
    if m = 0 then "i < nx && j < ny"
    else Printf.sprintf "i >= %d && i < nx - %d && j >= %d && j < ny - %d" m m m m
  in
  Printf.sprintf
    {|
__global__ void %s(const double *%s, double *%s, int nx, int ny, int nz, double c) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  int j = blockIdx.y * blockDim.y + threadIdx.y;
  if (%s) {
    for (int k = %d; k < nz - %d; k++) {
%s
    }
  }
}
|}
    name src dst guard mk mk body

(* one generated sample: the program plus the source text it was parsed
   from (the round-trip property re-parses the pretty-printed AST) *)
type fuzz_sample = { fz_src : string; fz_program : program }

let fuzz_sample_gen : fuzz_sample QCheck.Gen.t =
  let open QCheck.Gen in
  let offset n = if n = 0 then return 0 else int_range (-n) n in
  int_range 8 16 >>= fun nx ->
  int_range 4 8 >>= fun ny ->
  int_range 3 6 >>= fun nz ->
  int_range 1 3 >>= fun nk ->
  oneofl [ (4, 2, 1); (8, 2, 1); (8, 4, 1); (16, 4, 1) ] >>= fun block ->
  let kernel_spec =
    int_range 0 (min 2 ((ny - 1) / 2)) >>= fun m ->
    int_range 0 (min 1 ((nz - 1) / 2)) >>= fun mk ->
    int_range 1 4 >>= fun nterms ->
    list_repeat nterms (triple (offset m) (offset m) (offset mk)) >>= fun terms ->
    oneofl [ 0.125; 0.25; 0.5; 0.75; 1.0; 2.0 ] >>= fun coef ->
    frequency [ (7, return None); (3, map (fun r -> Some r) (int_range 2 3)) ]
    >>= fun accum -> return (m, mk, terms, coef, accum)
  in
  list_repeat nk kernel_spec >>= fun specs ->
  let srcs =
    List.mapi
      (fun i (m, mk, terms, _, accum) ->
        fuzz_kernel_src
          ~name:(Printf.sprintf "s%d" i)
          ~src:(Printf.sprintf "A%d" i)
          ~dst:(Printf.sprintf "A%d" (i + 1))
          ~m ~mk ~terms ~accum)
      specs
  in
  let src = String.concat "" srcs in
  let launches =
    List.mapi
      (fun i (_, _, _, coef, _) ->
        Launch
          {
            l_kernel = Printf.sprintf "s%d" i;
            l_domain = (nx, ny, 1);
            l_block = block;
            l_args =
              [
                Arg_array (Printf.sprintf "A%d" i);
                Arg_array (Printf.sprintf "A%d" (i + 1));
                Arg_int nx;
                Arg_int ny;
                Arg_int nz;
                Arg_double coef;
              ];
          })
      specs
  in
  let program =
    {
      p_name = "fuzz";
      p_arrays =
        List.init (nk + 1) (fun i -> arr3 (nx, ny, nz) (Printf.sprintf "A%d" i));
      p_kernels = Kft_cuda.Parse.kernels src;
      p_schedule = launches;
    }
  in
  return { fz_src = src; fz_program = program }

let fuzz_sample_print s =
  Printf.sprintf "%s\n/* schedule */\n%s" s.fz_src
    (Kft_cuda.Pp.host_schedule s.fz_program)

let fuzz_sample_arb = QCheck.make ~print:fuzz_sample_print fuzz_sample_gen

(* ------------------------------------------------------------------ *)
(* stdout/stderr capture (for in-process CLI smoke tests)              *)
(* ------------------------------------------------------------------ *)

(* run [f] with stdout and stderr redirected to temp files; returns
   (result, stdout text, stderr text) *)
let capture_output f =
  let slurp path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let out_file = Filename.temp_file "kft_test" ".out" in
  let err_file = Filename.temp_file "kft_test" ".err" in
  flush stdout;
  flush stderr;
  let saved_out = Unix.dup Unix.stdout and saved_err = Unix.dup Unix.stderr in
  let redirect path target =
    let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
    Unix.dup2 fd target;
    Unix.close fd
  in
  redirect out_file Unix.stdout;
  redirect err_file Unix.stderr;
  let restore () =
    flush stdout;
    flush stderr;
    Unix.dup2 saved_out Unix.stdout;
    Unix.close saved_out;
    Unix.dup2 saved_err Unix.stderr;
    Unix.close saved_err
  in
  let r = Fun.protect ~finally:restore f in
  let out = slurp out_file and err = slurp err_file in
  Sys.remove out_file;
  Sys.remove err_file;
  (r, out, err)

(* naive substring search (no Str dependency in the test suites) *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))
