open Kft_cuda.Ast

type kernel_profile = {
  kernel : string;
  launch : launch;
  stats : Interp.stats;
  timing : Timing.breakdown;
  regs_per_thread : int;
  cost : Kft_analysis.Cost.t;
  access : (Kft_analysis.Access.kernel_access_info, Kft_analysis.Access.failure_reason) result;
}

type run = {
  profiles : kernel_profile list;
  total_time_us : float;
  memory : Memory.t;
}

let profile_launch ?engine ?backend ?trace device mem prog l =
  let kernel = find_kernel prog l.l_kernel in
  let stats = Interp.launch ?engine ?backend ?trace mem prog l in
  let env = Kft_analysis.Access.env_of_launch prog l in
  let cost = Kft_analysis.Cost.of_kernel kernel env in
  let regs_per_thread = Kft_analysis.Cost.estimate_registers kernel in
  let timing =
    Timing.evaluate
      { device; stats; block = l.l_block; regs_per_thread; dependent_chain = cost.dependent_chain }
  in
  let access = Kft_analysis.Access.analyze_result kernel env in
  { kernel = l.l_kernel; launch = l; stats; timing; regs_per_thread; cost; access }

let profile_with_memory ?engine ?backend ?trace device mem prog =
  let profiles =
    List.filter_map
      (function
        | Launch l -> Some (profile_launch ?engine ?backend ?trace device mem prog l)
        | Copy_to_device _ | Copy_to_host _ -> None)
      prog.p_schedule
  in
  {
    profiles;
    total_time_us = List.fold_left (fun acc p -> acc +. p.timing.Timing.runtime_us) 0.0 profiles;
    memory = mem;
  }

let profile ?engine ?backend ?trace ?layout ?(seed = 42) device prog =
  let mem = Memory.create ?layout prog.p_arrays in
  Memory.init_seeded mem ~seed;
  profile_with_memory ?engine ?backend ?trace device mem prog

let verify ?engine ?backend ?trace ?(seed = 42) ?(tol = 1e-9) device ~original ~transformed =
  let run p =
    let mem = Memory.create p.p_arrays in
    Memory.init_seeded mem ~seed;
    ignore (profile_with_memory ?engine ?backend ?trace device mem p);
    mem
  in
  let m1 = run original and m2 = run transformed in
  (* [max_abs_diff] spans the union of array names; verification keeps
     its documented contract of comparing arrays common to both
     programs (a transformation may add or drop temporaries) *)
  let diffs =
    List.filter
      (fun (n, d) -> Memory.mem m1 n && Memory.mem m2 n && d > tol)
      (Memory.max_abs_diff m1 m2)
  in
  (* both memories are private to this verification: recycle their
     arenas instead of waiting for the GC *)
  Memory.release m1;
  Memory.release m2;
  if diffs = [] then Ok () else Error diffs

let speedup ~original ~transformed =
  if transformed.total_time_us <= 0.0 then infinity
  else original.total_time_us /. transformed.total_time_us
