(** Analytic timing model for simulated kernel launches.

    The model is the memory-bound roofline the paper's performance
    projection builds on, with three architecture effects the evaluation
    depends on:

    - {b occupancy-dependent bandwidth}: DRAM bandwidth saturates only
      when enough warps are in flight; effective bandwidth scales with
      occupancy up to a saturation point (~45%). This is what makes
      thread-block tuning (Section 4.2) show through in runtimes.
    - {b divergence}: intra-warp divergent conditionals serialize both
      lanes; memory time and compute time are inflated by the measured
      divergent-warp fraction (the HOMME defect of Figure 7).
    - {b latency}: kernels with long serially-dependent operation chains
      and too few in-flight warps are limited by neither roof (the Fluam
      anomaly of Figure 8); a chain-latency term models them.

    Absolute times are synthetic; every evaluation result in
    EXPERIMENTS.md is a ratio of two such times. *)

type input = {
  device : Kft_device.Device.t;
  stats : Interp.stats;
  block : int * int * int;
  regs_per_thread : int;
  dependent_chain : int;  (** from {!Kft_analysis.Cost.of_kernel} *)
}

type breakdown = {
  runtime_us : float;
  memory_time_us : float;
  compute_time_us : float;
  latency_time_us : float;
  occupancy : Kft_device.Occupancy.result;
  effective_bandwidth_gbs : float;  (** achieved bytes / runtime *)
}

val evaluate : input -> breakdown
