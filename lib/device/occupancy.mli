(** CUDA occupancy calculator (Section 4.2).

    Reimplements the equation chain of Nvidia's occupancy calculator
    spreadsheet: given a thread-block size, the registers used per thread
    and the shared memory used per block, compute the number of
    simultaneously active blocks per SM and the resulting occupancy
    (active warps / maximum warps). Thread-block tuning enumerates all
    feasible block sizes and keeps one with maximal occupancy. *)

type usage = {
  block_threads : int;  (** threads per block (product of block dims) *)
  regs_per_thread : int;
  shared_per_block : int;  (** bytes, static + dynamic *)
}

type result = {
  active_blocks_per_sm : int;
  active_warps_per_sm : int;
  occupancy : float;  (** in [0, 1] *)
  limiter : [ `Warps | `Blocks | `Registers | `Shared_memory | `Infeasible ];
}

val calculate : Device.t -> usage -> result
(** [calculate device usage] follows the occupancy-calculator equations:
    warps per block are rounded up to whole warps; register allocation is
    per warp with the device granularity; shared memory is rounded up to
    the allocation granularity. An infeasible configuration (block too
    large, too many registers, block shared memory over the per-block
    limit) yields occupancy 0 and limiter [`Infeasible]. *)

type block_dims = int * int * int

val tune :
  Device.t ->
  regs_per_thread:int ->
  shared_per_block:(block_dims -> int) ->
  current:block_dims ->
  block_dims * result
(** [tune device ~regs_per_thread ~shared_per_block ~current] evaluates
    every candidate block shape ([shared_per_block] maps a shape to its
    shared-memory footprint, which depends on tile size) and returns a
    shape maximizing occupancy. The current shape wins ties, so tuning
    never churns a kernel for no gain. *)
