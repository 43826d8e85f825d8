(** The nvprof stand-in: execute a program on the simulator and produce
    per-kernel performance profiles (Section 5.1's single profiled run
    of the instrumented code). *)

type kernel_profile = {
  kernel : string;
  launch : Kft_cuda.Ast.launch;
  stats : Interp.stats;
  timing : Timing.breakdown;
  regs_per_thread : int;
  cost : Kft_analysis.Cost.t;
  access : (Kft_analysis.Access.kernel_access_info, Kft_analysis.Access.failure_reason) result;
}

type run = {
  profiles : kernel_profile list;  (** in schedule order, one per launch *)
  total_time_us : float;  (** sum of modeled kernel runtimes *)
  memory : Memory.t;  (** final device memory *)
}

val profile :
  ?engine:Kft_engine.Engine.t -> ?backend:Interp.backend ->
  ?trace:Kft_trace.Trace.t -> ?seed:int ->
  Kft_device.Device.t -> Kft_cuda.Ast.program -> run
(** Allocate and seed device memory (default seed 42), then run the full
    schedule. [engine] and [backend] are passed through to
    {!Interp.launch} (backend selection never changes the profile — the
    backends are bit-identical — only how fast it is produced).
    [trace] records one span per launch. *)

val compare :
  tol:float -> Memory.t -> Memory.t -> (unit, (string * float) list) result
(** Compare the arrays common to both memories (an array present on
    only one side is ignored: a transformation may add or drop
    temporaries); [Error diffs] lists, in name order, every array whose
    maximum absolute difference exceeds [tol], with that difference. *)

val verify :
  ?engine:Kft_engine.Engine.t -> ?backend:Interp.backend ->
  ?trace:Kft_trace.Trace.t -> ?seed:int -> ?tol:float ->
  Kft_device.Device.t ->
  original:Kft_cuda.Ast.program -> transformed:Kft_cuda.Ast.program ->
  (unit, (string * float) list) result
(** Profile both programs from identical seeded memory, then
    {!compare} their final memories. This is the output verification
    the paper performed "for every single run" (Section 6.1.2);
    [Kft_framework.Framework.transform] applies {!compare} to the two
    runs it already holds, and this function stays the independent
    re-simulating reference. *)

val speedup : original:run -> transformed:run -> float
(** Ratio of total modeled times. *)
