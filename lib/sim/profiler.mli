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
  ?trace:Kft_trace.Trace.t -> ?layout:Memory.layout -> ?seed:int ->
  Kft_device.Device.t -> Kft_cuda.Ast.program -> run
(** Allocate and seed device memory (default seed 42), then run the full
    schedule. [engine] and [backend] are passed through to
    {!Interp.launch} (backend selection never changes the profile — the
    backends are bit-identical — only how fast it is produced). [layout] places the arrays by a liveness-driven overlay
    (see {!Memory.layout}): statistics and timings are bit-identical,
    only the arena is smaller — use when the run's memory is discarded.
    [trace] records one span per launch. *)

val profile_with_memory :
  ?engine:Kft_engine.Engine.t -> ?backend:Interp.backend ->
  ?trace:Kft_trace.Trace.t ->
  Kft_device.Device.t -> Memory.t -> Kft_cuda.Ast.program -> run
(** Run against caller-provided memory (mutated in place); used to
    compare two program versions from identical initial state. *)

val verify :
  ?engine:Kft_engine.Engine.t -> ?backend:Interp.backend ->
  ?trace:Kft_trace.Trace.t -> ?seed:int -> ?tol:float ->
  Kft_device.Device.t ->
  original:Kft_cuda.Ast.program -> transformed:Kft_cuda.Ast.program ->
  (unit, (string * float) list) result
(** Run both programs from identical seeded memory and compare all
    arrays common to both; [Error diffs] lists offending arrays with
    their max absolute difference. This is the output verification the
    paper performed "for every single run" (Section 6.1.2). *)

val speedup : original:run -> transformed:run -> float
(** Ratio of total modeled times. *)
