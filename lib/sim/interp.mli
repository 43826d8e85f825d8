(** Functional GPU simulator: a bulk-synchronous lockstep interpreter
    for the CUDA subset.

    Execution model: thread blocks run independently (optionally in
    parallel over an engine's domain pool, see {!launch}); inside a
    block, statements that contain no [__syncthreads()] execute
    thread-by-thread (two observations make this sound for the supported
    subset: race-free kernels are order-insensitive, and racy ones are
    undefined behaviour in real CUDA — the [kft_verify] race prover
    rules them out or reports them); statements that do contain a
    barrier execute in lockstep with uniformity checks, exactly the
    discipline real CUDA requires of barriers.

    The interpreter doubles as the instrumentation layer of Section 5.1:
    it counts global traffic, floating-point operations and intra-warp
    divergence of conditionals, which the profiler turns into the
    paper's performance metadata. *)

type stats = {
  mutable global_read_bytes : int;
  mutable global_write_bytes : int;
  mutable flops : float;
  mutable warp_cond_evals : int;
      (** warp-granularity evaluations of thread-dependent conditionals *)
  mutable divergent_warp_cond_evals : int;
  mutable threads_launched : int;
  mutable threads_active : int;  (** threads never disabled by [return] and executing at least one write *)
  shared_bytes_per_block : int;
  blocks_launched : int;
}

val divergence_fraction : stats -> float

val copy_stats : stats -> stats
(** A fresh record with the same counters, so a cached profile can be
    replayed without aliasing its mutable fields. *)

exception
  Sim_error of {
    kernel : string;
    message : string;
  }
(** Out-of-bounds accesses, barrier divergence, unbound names, arity
    errors. Every execution backend raises the same exception with the
    same message (that of the lowest failing block). *)

type backend =
  | Auto  (** alias of [Affine] *)
  | Interpret  (** the reference interpreter: no rewriting, plain closures *)
  | Affine  (** compiled lockstep with affine strength reduction (the default) *)
  | Vector  (** alias of [Affine] *)
(** Execution backend selection. There are two execution paths, the
    [Interpret] reference oracle and the compiled [Affine] path; [Auto]
    and [Vector] are accepted names that run the [Affine] path. Both
    paths produce bit-identical memory, statistics and usage — backend
    choice is purely a performance decision. *)

val backend_name : backend -> string
(** ["auto"] / ["interp"] / ["affine"] / ["vector"]. *)

val backend_of_string : string -> backend option
(** Inverse of {!backend_name} (the CLI flag values). *)

val chunk_override : int option ref
(** Test hook: force the block-range chunk count, bypassing the
    adaptive serial-fallback policy, so the ordered-merge path can be
    exercised deterministically on single-core hosts. Reset to [None]
    after use. *)

val access_trace : (write:bool -> string -> int -> unit) option ref
(** Test hook: when set, every in-bounds global-memory access taken on
    the interpretive path reports its direction, array name and linear
    element index. The optimized affine path does not trace — run with
    [~backend:Interpret] (and no [engine]: the callback is invoked from
    worker domains otherwise). Reset to [None] after use. *)

val launch :
  ?engine:Kft_engine.Engine.t -> ?backend:backend ->
  ?trace:Kft_trace.Trace.t ->
  Memory.t -> Kft_cuda.Ast.program -> Kft_cuda.Ast.launch -> stats
(** Execute one kernel launch against device memory, returning its
    execution statistics.

    [engine] fans the grid's linearized block range out over the
    engine's domain pool in contiguous chunks (blocks are independent:
    the subset has no inter-block synchronization, and kft_verify proves
    per-thread write disjointness for verified kernels). Per-block stats
    deltas are merged in block-index order whatever the chunking, so
    stats and final memory are bit-identical at any jobs setting —
    including sequential (no engine, the default). A failing launch
    raises the same [Sim_error] (that of the lowest failing block) in
    either mode.

    [backend] (default [Affine]) selects the execution path (see
    {!backend}). Every backend but [Interpret] applies {!Affine}
    strength reduction of index expressions before compilation; it is
    observation-preserving (same values, same stats), only faster.

    [trace] records one [launch:<kernel>] span per call with block,
    thread and read/write byte totals plus the executed path
    (["affine"] or ["interp"]) in the canonical channel, and the
    block-chunk split in the side channel (see {!Kft_trace.Trace}). The
    trace is only touched from the calling (coordinator) domain. *)

val launch_with_usage :
  ?engine:Kft_engine.Engine.t -> ?backend:backend ->
  ?trace:Kft_trace.Trace.t ->
  Memory.t -> Kft_cuda.Ast.program -> Kft_cuda.Ast.launch ->
  stats * (string list * string list)
(** Like {!launch}, additionally returning the host arrays the launch
    dynamically (actually) read and wrote. This is the "pre-run to
    detect the data usage pattern" the paper proposes as the practical
    answer to pointer aliasing (Section 7): a dynamic ground truth to
    validate the static dependence analysis against. *)

val run_schedule :
  ?engine:Kft_engine.Engine.t -> ?backend:backend ->
  ?trace:Kft_trace.Trace.t ->
  Memory.t -> Kft_cuda.Ast.program -> (Kft_cuda.Ast.launch * stats) list
(** Execute every [Launch] of the program's schedule in order ([Copy_*]
    markers are no-ops for the simulator: memory is unified). *)
