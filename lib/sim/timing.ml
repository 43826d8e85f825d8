type input = {
  device : Kft_device.Device.t;
  stats : Interp.stats;
  block : int * int * int;
  regs_per_thread : int;
  dependent_chain : int;
}

type breakdown = {
  runtime_us : float;
  memory_time_us : float;
  compute_time_us : float;
  latency_time_us : float;
  occupancy : Kft_device.Occupancy.result;
  effective_bandwidth_gbs : float;
}

(* occupancy at which effective bandwidth reaches peak *)
let bandwidth_saturation_occupancy = 0.45

(* each divergent warp-level conditional evaluation wastes roughly two
   32-lane transactions' worth of memory slots; finer-grained guard
   placement (the automated codegen of Figure 7) multiplies these *)
let divergent_eval_cost_bytes = 256.0

let divergence_compute_penalty = 1.0

(* latency of one dependent arithmetic/load step, microseconds *)
let op_latency_us = 0.012

(* instruction-level parallelism assumed inside one thread *)
let intra_thread_ilp = 2.0

let evaluate { device = d; stats; block = (bx, by, bz); regs_per_thread; dependent_chain } =
  let block_threads = bx * by * bz in
  let occ =
    Kft_device.Occupancy.calculate d
      {
        block_threads;
        regs_per_thread;
        shared_per_block = stats.Interp.shared_bytes_per_block;
      }
  in
  let div = Interp.divergence_fraction stats in
  let bytes = float_of_int (stats.global_read_bytes + stats.global_write_bytes) in
  let bw_factor = Float.min 1.0 (occ.occupancy /. bandwidth_saturation_occupancy) in
  let bw_factor = Float.max bw_factor 0.05 in
  let divergence_bytes =
    float_of_int stats.divergent_warp_cond_evals *. divergent_eval_cost_bytes
  in
  let memory_time_us =
    (bytes +. divergence_bytes) /. (d.peak_bandwidth_gbs *. 1e3 *. bw_factor)
  in
  let compute_time_us =
    stats.flops /. (d.peak_gflops_double *. 1e3) *. (1.0 +. (divergence_compute_penalty *. div))
  in
  (* chain latency: each thread serially walks [dependent_chain] ops;
     concurrency across warps hides it *)
  let warps_per_block = (block_threads + d.warp_size - 1) / d.warp_size in
  let total_warps = stats.blocks_launched * warps_per_block in
  let warps_per_sm =
    Float.min
      (float_of_int occ.active_warps_per_sm)
      (float_of_int total_warps /. float_of_int d.sm_count)
  in
  let warps_per_sm = Float.max warps_per_sm 1.0 in
  let latency_time_us =
    let serial_rounds =
      float_of_int stats.threads_launched
      /. (float_of_int d.sm_count *. warps_per_sm *. float_of_int d.warp_size)
    in
    serial_rounds *. float_of_int dependent_chain *. op_latency_us /. intra_thread_ilp
  in
  let busy = Float.max memory_time_us (Float.max compute_time_us latency_time_us) in
  let runtime_us = d.kernel_launch_overhead_us +. busy in
  {
    runtime_us;
    memory_time_us;
    compute_time_us;
    latency_time_us;
    occupancy = occ;
    effective_bandwidth_gbs = (if runtime_us > 0.0 then bytes /. (runtime_us *. 1e3) else 0.0);
  }
