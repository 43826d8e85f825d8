type usage = {
  block_threads : int;
  regs_per_thread : int;
  shared_per_block : int;
}

type result = {
  active_blocks_per_sm : int;
  active_warps_per_sm : int;
  occupancy : float;
  limiter : [ `Warps | `Blocks | `Registers | `Shared_memory | `Infeasible ];
}

let round_up v granularity = (v + granularity - 1) / granularity * granularity

let infeasible = { active_blocks_per_sm = 0; active_warps_per_sm = 0; occupancy = 0.0; limiter = `Infeasible }

let calculate (d : Device.t) u =
  if
    u.block_threads <= 0
    || u.block_threads > d.max_threads_per_block
    || u.regs_per_thread > d.max_regs_per_thread
    || u.shared_per_block > d.shared_mem_per_block
  then infeasible
  else begin
    let warps_per_block = (u.block_threads + d.warp_size - 1) / d.warp_size in
    let by_warps = d.max_warps_per_sm / warps_per_block in
    let by_blocks = d.max_blocks_per_sm in
    let by_regs =
      if u.regs_per_thread = 0 then max_int
      else begin
        (* registers are allocated per warp, rounded to the granularity *)
        let regs_per_warp = round_up (u.regs_per_thread * d.warp_size) d.reg_alloc_granularity in
        let warps_by_regs = d.regs_per_sm / regs_per_warp in
        warps_by_regs / warps_per_block
      end
    in
    let by_shared =
      if u.shared_per_block = 0 then max_int
      else d.shared_mem_per_sm / round_up u.shared_per_block d.shared_alloc_granularity
    in
    let blocks = min (min by_warps by_blocks) (min by_regs by_shared) in
    if blocks <= 0 then infeasible
    else begin
      let limiter =
        if blocks = by_shared && by_shared < min (min by_warps by_blocks) by_regs then `Shared_memory
        else if blocks = by_regs && by_regs < min by_warps by_blocks then `Registers
        else if blocks = by_warps && by_warps <= by_blocks then `Warps
        else `Blocks
      in
      let active_warps = blocks * warps_per_block in
      {
        active_blocks_per_sm = blocks;
        active_warps_per_sm = active_warps;
        occupancy = float_of_int active_warps /. float_of_int d.max_warps_per_sm;
        limiter;
      }
    end
  end

type block_dims = int * int * int

(* the tuner's 2D/3D block shapes: x a multiple of the warp size for
   coalescing, total threads within the device limit; sorted by total
   size then x-width *)
let candidate_blocks (d : Device.t) =
  let xs = [ 32; 64; 128; 256; 512 ] in
  let ys = [ 1; 2; 4; 8; 16 ] in
  let cands =
    List.concat_map
      (fun x ->
        List.filter_map
          (fun y -> if x * y <= d.max_threads_per_block then Some (x, y, 1) else None)
          ys)
      xs
  in
  List.sort
    (fun (x1, y1, _) (x2, y2, _) ->
      match compare (x1 * y1) (x2 * y2) with 0 -> compare x1 x2 | c -> c)
    cands

let tune (d : Device.t) ~regs_per_thread ~shared_per_block ~current =
  let eval dims =
    let x, y, z = dims in
    calculate d
      { block_threads = x * y * z; regs_per_thread; shared_per_block = shared_per_block dims }
  in
  let current_result = eval current in
  let best =
    List.fold_left
      (fun ((_, best_r) as best) dims ->
        let r = eval dims in
        if r.occupancy > best_r.occupancy +. 1e-9 then (dims, r) else best)
      (current, current_result)
      (candidate_blocks d)
  in
  best
