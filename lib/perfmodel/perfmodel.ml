module M = Kft_metadata.Metadata

type array_info = {
  host : string;
  reads : int;
  writes : int;
  radius : int * int * int;
  traffic_share : float;
}

type unit_model = {
  unit_name : string;
  flops : float;
  bytes : float;
  runtime_us : float;
  arrays : array_info list;
  block : int * int * int;
  domain : int * int * int;
  nest_depth : int;
  fusable : bool;
}

let of_metadata (meta : M.t) kernel =
  let perf = M.find_perf meta kernel in
  let ops = M.find_ops meta kernel in
  let total_accesses =
    List.fold_left (fun acc (a : M.array_op) -> acc + a.reads + a.writes) 0 ops.arrays
  in
  let arrays =
    List.map
      (fun (a : M.array_op) ->
        {
          host = a.array;
          reads = a.reads;
          writes = a.writes;
          radius = a.radius;
          traffic_share =
            (if total_accesses = 0 then 0.0
             else float_of_int (a.reads + a.writes) /. float_of_int total_accesses);
        })
      ops.arrays
  in
  {
    unit_name = kernel;
    flops = perf.flops;
    bytes = perf.bytes;
    runtime_us = perf.runtime_us;
    arrays;
    block = ops.block;
    domain = ops.domain;
    nest_depth = ops.nest_depth;
    fusable = ops.irregular = None;
  }

type group_eval = {
  projected_time_us : float;
  traffic_bytes : float;
  raw_bytes : float;
  group_flops : float;
  shared_bytes_needed : int;
  shared_ok : bool;
  saved_launches : int;
}

let halo_fraction ~block:(bx, by, _) ~radius:(rx, ry, _) =
  let tile = float_of_int (bx * by) in
  let padded = float_of_int ((bx + (2 * rx)) * (by + (2 * ry))) in
  (padded -. tile) /. tile

(* members with loop-nest depth >= 2 realize only this fraction of the
   projected reuse (the auto-codegen inefficiency of Figure 6) *)
let nested_loop_reuse_discount = 0.25

(* arrays touched by >= 2 members, with the max read radius over members *)
let reused_arrays models =
  let tbl : (string, int * (int * int * int)) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun m ->
      List.iter
        (fun a ->
          let cnt, (rx, ry, rz) =
            Option.value ~default:(0, (0, 0, 0)) (Hashtbl.find_opt tbl a.host)
          in
          let ax, ay, az = a.radius in
          Hashtbl.replace tbl a.host (cnt + 1, (max rx ax, max ry ay, max rz az)))
        m.arrays)
    models;
  Hashtbl.fold (fun host (cnt, r) acc -> if cnt >= 2 then (host, r) :: acc else acc) tbl []
  |> List.sort compare

let shared_bytes_for_group ~block:(bx, by, _) models =
  List.fold_left
    (fun acc (_, (rx, ry, _)) -> acc + ((bx + (2 * rx)) * (by + (2 * ry)) * 8))
    0
    (reused_arrays models)

let eval_group (d : Kft_device.Device.t) models =
  match models with
  | [] -> invalid_arg "Perfmodel.eval_group: empty group"
  | first :: _ ->
      let block = first.block in
      let raw_bytes = List.fold_left (fun acc m -> acc +. m.bytes) 0.0 models in
      let group_flops = List.fold_left (fun acc m -> acc +. m.flops) 0.0 models in
      let reused = reused_arrays models in
      (* savings: every member after the first to touch a reused array is
         served on-chip for that array's read traffic *)
      let seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
      let savings = ref 0.0 in
      List.iter
        (fun m ->
          let discount = if m.nest_depth >= 2 then nested_loop_reuse_discount else 1.0 in
          List.iter
            (fun a ->
              match List.assoc_opt a.host reused with
              | None -> ()
              | Some radius ->
                  if Hashtbl.mem seen a.host then begin
                    let read_frac =
                      if a.reads + a.writes = 0 then 0.0
                      else float_of_int a.reads /. float_of_int (a.reads + a.writes)
                    in
                    let reuse_eff =
                      Float.max 0.0 (1.0 -. halo_fraction ~block ~radius)
                    in
                    savings :=
                      !savings +. (m.bytes *. a.traffic_share *. read_frac *. reuse_eff *. discount)
                  end
                  else Hashtbl.replace seen a.host ())
            m.arrays)
        models;
      let traffic_bytes = Float.max 0.0 (raw_bytes -. !savings) in
      let shared_bytes_needed = shared_bytes_for_group ~block models in
      (* the staging footprint bounds occupancy, and DRAM bandwidth only
         saturates with enough warps in flight -- without this term the
         search would chase mega-groups whose tiles evict all parallelism *)
      let bx, by, bz = block in
      let occ =
        (Kft_device.Occupancy.calculate d
           {
             block_threads = bx * by * bz;
             regs_per_thread = 32;
             shared_per_block = shared_bytes_needed;
           })
          .occupancy
      in
      let bw_factor = Float.max 0.05 (Float.min 1.0 (occ /. 0.45)) in
      let mem_time = traffic_bytes /. (d.peak_bandwidth_gbs *. 1e3 *. bw_factor) in
      let comp_time = group_flops /. (d.peak_gflops_double *. 1e3) in
      let projected_time_us = Float.max mem_time comp_time +. d.kernel_launch_overhead_us in
      {
        projected_time_us;
        traffic_bytes;
        raw_bytes;
        group_flops;
        shared_bytes_needed;
        shared_ok = shared_bytes_needed <= d.shared_mem_per_block;
        saved_launches = List.length models - 1;
      }

let objective d groups =
  let time, flops =
    List.fold_left
      (fun (t, f) g ->
        let e = eval_group d g in
        (t +. e.projected_time_us, f +. e.group_flops))
      (0.0, 0.0) groups
  in
  if time <= 0.0 then 0.0 else flops /. (time *. 1e3)

(* An alternative black-box objective (Section 3.2.4 lets the programmer
   swap the objective function): minimize projected global traffic plus
   launch overheads, expressed as a score to maximize. Useful when the
   device's compute roof is irrelevant and the search should chase pure
   reuse. *)
let objective_traffic d groups =
  let cost =
    List.fold_left
      (fun acc g ->
        let e = eval_group d g in
        acc +. (e.traffic_bytes /. 1e6) +. (d.Kft_device.Device.kernel_launch_overhead_us /. 10.0))
      0.0 groups
  in
  if cost <= 0.0 then 0.0 else 1000.0 /. cost

(* ------------------------------------------------------------------ *)
(* Advisory hardware-cost hints for the lint surface (kft lint).       *)
(* Pure functions of the access pattern; deliberately not folded into  *)
(* [objective] so search results and goldens are unaffected.           *)
(* ------------------------------------------------------------------ *)

let warp_size = 32

let divergence_penalty ~taken_fraction =
  let f = Float.min 1.0 (Float.max 0.0 taken_fraction) in
  2.0 -. Float.abs ((2.0 *. f) -. 1.0)

let coalescing_amplification ~stride =
  float_of_int (min (abs stride) warp_size)
  |> Float.max 1.0

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let bank_conflict_ways ~stride =
  let s = abs stride in
  if s = 0 then warp_size (* all lanes hit one cell: broadcast reads are
                             fine, but writes serialize; report the way
                             count and let the caller decide *)
  else gcd warp_size s
