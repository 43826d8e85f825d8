(** The codeless performance projection used as the GGA objective
    function (Section 2, building on [28]).

    "Codeless" means the model never inspects kernel code: it works from
    the measured performance metadata and the statically extracted
    operations metadata only, which keeps objective evaluation cheap
    enough for hundreds of thousands of GA evaluations.

    For a candidate fusion group the model projects the group's traffic
    after reuse: the first member to touch an array pays its full
    traffic; later readers of the same array are served from on-chip
    staging and pay only the halo reload overhead. The projected group
    time is the memory-bound roofline over the reduced traffic, plus one
    kernel-launch overhead instead of one per member. The objective of a
    whole solution is its projected GFLOPS — total FLOPs over total
    projected time — matching the paper's "float value of a projected
    performance bound in GFLOPS". *)

type array_info = {
  host : string;
  reads : int;
  writes : int;
  radius : int * int * int;
  traffic_share : float;  (** this array's share of the kernel's measured traffic *)
}

type unit_model = {
  unit_name : string;  (** invocation key (original kernel or fission part) *)
  flops : float;
  bytes : float;
  runtime_us : float;
  arrays : array_info list;
  block : int * int * int;
  domain : int * int * int;
  nest_depth : int;
  fusable : bool;  (** false for irregular kernels *)
}

val of_metadata : Kft_metadata.Metadata.t -> string -> unit_model
(** Build the model of one kernel from gathered metadata. Raises
    [Not_found] when the kernel has no entries. *)

type group_eval = {
  projected_time_us : float;
  traffic_bytes : float;  (** after reuse *)
  raw_bytes : float;  (** before reuse *)
  group_flops : float;
  shared_bytes_needed : int;  (** staging footprint per thread block *)
  shared_ok : bool;  (** footprint fits the device's per-block shared memory *)
  saved_launches : int;
}

val halo_fraction : block:(int * int * int) -> radius:(int * int * int) -> float
(** Extra fraction of a tile loaded as halo: ((bx+2rx)(by+2ry) - bx·by) / bx·by. *)

val eval_group : Kft_device.Device.t -> unit_model list -> group_eval

val shared_bytes_for_group :
  block:(int * int * int) -> unit_model list -> int
(** Per-block staging bytes: one 2D tile (block + halo) per array touched
    by two or more members. *)

val objective : Kft_device.Device.t -> unit_model list list -> float
(** Projected GFLOPS of a whole solution (a partition of the target
    kernels into groups). This is the default objective; the GGA accepts
    any function of the same shape (Section 3.2.4's pluggable objective). *)

val objective_traffic : Kft_device.Device.t -> unit_model list list -> float
(** Alternative objective (the paper lets the programmer plug in his own
    black-box objective and select it in the parameter file): maximize
    the inverse of projected traffic + launch overheads. *)

val warp_size : int
(** Lanes per warp on the modeled device class (32 for Kepler). *)

val divergence_penalty : taken_fraction:float -> float
(** Modeled execution-cost factor of a thread-dependent guard: when a
    warp's lanes disagree the hardware serializes the two sides, so a
    branch taken by a fraction f of the threads costs up to
    [2 - |2f - 1|] times a uniform branch (1.0 at f = 0 or 1, 2.0 at
    f = 0.5). Advisory: used by [kft lint] to rank divergent guards, not
    by {!objective}. *)

val coalescing_amplification : stride:int -> float
(** Modeled transaction amplification of a global access whose
    lowest-dimension (threadIdx.x) stride is [stride] elements: a warp
    touching consecutive cells coalesces into one transaction
    (factor 1); a strided warp needs up to [min |stride| warp_size]
    transactions. Advisory, for [kft lint]. *)

val bank_conflict_ways : stride:int -> int
(** Modeled shared-memory bank-conflict degree of a per-thread stride:
    [gcd stride warp_size] simultaneous lanes hit the same bank (1 = no
    conflict). Advisory, for [kft lint]. *)
