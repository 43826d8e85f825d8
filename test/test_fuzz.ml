(* Differential-fuzzing battery over randomly generated well-formed
   stencil kernel chains (Util.fuzz_sample_arb).

   Property 1: the frontend and unparser agree — every fuzzed kernel
   survives a print/parse round-trip structurally unchanged.

   Property 2: the simulator's execution strategies agree — the
   compiled-affine fast path ([Affine]) and the block-parallel engine
   path (jobs=4, on both backends) reproduce the plain interpreter's
   memory and launch statistics bit for bit on every fuzzed program. *)

open Kft_cuda.Ast
module Interp = Kft_sim.Interp
module Memory = Kft_sim.Memory
module Engine = Kft_engine.Engine

(* one pool shared by all differential cases (spawning domains per
   QCheck case would dominate the runtime); shut down at exit *)
let shared_engine =
  lazy
    (let e = Engine.create ~jobs:4 ~memo:false () in
     at_exit (fun () -> Engine.shutdown e);
     e)

let run ?engine ~backend (p : program) =
  let mem = Memory.create p.p_arrays in
  Memory.init_seeded mem ~seed:7;
  let runs = Interp.run_schedule ?engine ~backend mem p in
  (mem, List.map snd runs)

let prop_roundtrip =
  QCheck.Test.make ~name:"fuzzed kernels survive a print/parse round-trip" ~count:150
    Util.fuzz_sample_arb
    (fun s ->
      let ks = s.Util.fz_program.p_kernels in
      let ks' = Kft_cuda.Parse.kernels (Kft_cuda.Pp.kernels ks) in
      List.length ks = List.length ks' && List.for_all2 equal_kernel ks ks')

let prop_differential =
  QCheck.Test.make
    ~name:"interpret / compiled-affine / block-parallel simulations are bit-identical"
    ~count:120 Util.fuzz_sample_arb
    (fun s ->
      let p = s.Util.fz_program in
      let ref_mem, ref_stats = run ~backend:Interp.Interpret p in
      List.for_all
        (fun (engine, backend) ->
          let mem, stats = run ?engine ~backend p in
          Memory.equal_within ~tol:0.0 ref_mem mem && stats = ref_stats)
        [
          (None, Interp.Affine);
          (Some (Lazy.force shared_engine), Interp.Interpret);
          (Some (Lazy.force shared_engine), Interp.Affine);
        ])

let suite =
  [
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_differential;
  ]
