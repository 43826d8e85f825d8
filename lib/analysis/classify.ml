type kind = Compute_bound | Memory_bound | Boundary | Latency_bound

let to_string = function
  | Compute_bound -> "compute-bound"
  | Memory_bound -> "memory-bound"
  | Boundary -> "boundary"
  | Latency_bound -> "latency-bound"

(* FLOPs per byte of global traffic *)
let operational_intensity ~flops ~bytes = if bytes <= 0.0 then infinity else flops /. bytes

(* operational intensity at which the Roofline turns flat *)
let ridge_point (d : Kft_device.Device.t) = d.peak_gflops_double /. d.peak_bandwidth_gbs

(* fraction of the largest touched array below which a memory-bound
   kernel counts as a boundary kernel *)
let boundary_coverage_threshold = 0.10

let coverage ~domain_cells ~max_array_cells ~active_fraction =
  if max_array_cells <= 0 then 1.0
  else active_fraction *. float_of_int domain_cells /. float_of_int max_array_cells

let classify_static ~device ~flops ~bytes ~domain_cells ~max_array_cells ~active_fraction =
  let oi = operational_intensity ~flops ~bytes in
  if oi > ridge_point device then Compute_bound
  else if coverage ~domain_cells ~max_array_cells ~active_fraction < boundary_coverage_threshold
  then Boundary
  else Memory_bound

let classify_measured ~device ~flops ~bytes ~domain_cells ~max_array_cells ~active_fraction
    ~runtime_us =
  match classify_static ~device ~flops ~bytes ~domain_cells ~max_array_cells ~active_fraction with
  | Memory_bound when runtime_us > 0.0 ->
      let achieved_bw_gbs = bytes /. (runtime_us *. 1e3) in
      let achieved_gflops = flops /. (runtime_us *. 1e3) in
      (* far from both roofs: neither bandwidth- nor compute-limited,
         hence limited by latency / overlap *)
      if
        achieved_bw_gbs < 0.25 *. device.peak_bandwidth_gbs
        && achieved_gflops < 0.25 *. device.peak_gflops_double
      then Latency_bound
      else Memory_bound
  | k -> k
