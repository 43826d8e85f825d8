(** Kernel classification for target filtering (Section 3.2.2).

    Two kinds of kernels are excluded from the fusion search: compute-
    bound kernels (identified by mapping operational intensity onto the
    Roofline model) and boundary kernels (memory-bound kernels touching
    only a small subset of the grid, e.g. boundary-condition updates).

    The paper notes a third, problematic kind: latency-bound kernels with
    poor memory/compute overlap that *look* memory-bound to the automated
    filter (the Fluam anomaly of Figure 8). {!classify_measured} exposes
    the refined judgement a human expert would make from achieved
    bandwidth, used by the "manual filtering" baseline. *)

type kind = Compute_bound | Memory_bound | Boundary | Latency_bound

val to_string : kind -> string

val classify_static :
  device:Kft_device.Device.t ->
  flops:float ->
  bytes:float ->
  domain_cells:int ->
  max_array_cells:int ->
  active_fraction:float ->
  kind
(** The automated filter: Roofline for compute-bound, small iteration
    coverage (domain x active fraction relative to the largest array
    touched) for boundary kernels. Never returns [Latency_bound] — the
    automated filter cannot see it, which is exactly the paper's
    observation. *)

val classify_measured :
  device:Kft_device.Device.t ->
  flops:float ->
  bytes:float ->
  domain_cells:int ->
  max_array_cells:int ->
  active_fraction:float ->
  runtime_us:float ->
  kind
(** The expert filter: additionally marks kernels whose achieved
    bandwidth and achieved GFLOPS are both far below the device roofline
    as [Latency_bound]. *)
