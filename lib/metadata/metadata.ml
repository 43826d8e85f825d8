open Kft_cuda.Ast

type perf_entry = {
  kernel : string;
  runtime_us : float;
  flops : float;
  bytes : float;
  effective_bw_gbs : float;
  shared_per_block : int;
  regs_per_thread : int;
  active_threads : int;
  active_blocks_per_sm : int;
  occupancy : float;
  divergence : float;
}

type array_op = {
  array : string;
  reads : int;
  writes : int;
  radius : int * int * int;
  array_flops : float;
}

type loop_op = { loop_var : string; trip : int; vertical : bool }

type ops_entry = {
  o_kernel : string;
  domain : int * int * int;
  block : int * int * int;
  arrays : array_op list;
  loops : loop_op list;
  nest_depth : int;
  active_fraction : float;
  stride : int;
  shared_arrays : string list;
  irregular : string option;
}

type t = {
  performance : perf_entry list;
  operations : ops_entry list;
  device : Kft_device.Device.t;
}

(* ------------------------------------------------------------------ *)
(* Gathering                                                           *)
(* ------------------------------------------------------------------ *)

let dedup l =
  let seen = Hashtbl.create 8 in
  List.filter (fun x -> if Hashtbl.mem seen x then false else (Hashtbl.replace seen x (); true)) l

(* host array names touched by a launch, via the parameter binding *)
let touched_host_arrays prog (l : launch) =
  let k = find_kernel prog l.l_kernel in
  let binding = bind_args k l.l_args in
  let used = referenced_arrays k in
  List.filter_map
    (fun p ->
      match List.assoc (param_name p) binding with
      | Arg_array host when List.mem (param_name p) used -> Some host
      | _ -> None
      | exception Not_found -> None)
    k.k_params
  |> dedup

(* ------------------------------------------------------------------ *)
(* Profile cache                                                       *)
(* ------------------------------------------------------------------ *)

module Sim_cache = struct
  module Cache = Kft_engine.Engine.Cache

  (* A cached run holds the final memory as a packed {!Kft_sim.Memory}
     snapshot rather than a live hashtable of arrays: replaying a hit is
     then one contiguous [Array.blit] per array (Memory.restore) plus
     fresh stats records — the fast path Sim_cache replays were paying
     hashtable-copy overhead for. Profiles are stored with private stats
     so neither the cache nor any replay aliases a caller's counters. *)
  type entry = {
    e_profiles : Kft_sim.Profiler.kernel_profile list;
    e_total_us : float;
    e_memory : Kft_sim.Memory.snapshot;
  }

  type t = entry Cache.t

  let create () : t = Cache.create ()

  let stats : t -> Cache.stats = Cache.stats

  let clear : t -> unit = Cache.clear

  (* Structurally equal values marshal identically, so the digest of the
     marshalled (program, seed, device) triple keys "the same simulation":
     the program carries every kernel AST and the full launch schedule
     (grid/block configs and argument bindings), [seed] fixes the initial
     memory image, and the device fixes the timing model.

     The key additionally carries a memory-representation tag. Entries
     written under a different device-memory substrate must read as
     misses: their snapshots belong to the other representation, and a
     silent hit would replay stale state. Bumping [repr_tag] on a
     substrate change invalidates every old entry at once. *)
  let repr_tag = "mem:bigarray-arena-v1"

  let key ?(tag = repr_tag) ~seed device (prog : program) =
    Digest.to_hex (Digest.string (Marshal.to_string (tag, prog, seed, device) []))

  let copy_profiles ps =
    List.map
      (fun (p : Kft_sim.Profiler.kernel_profile) ->
        { p with Kft_sim.Profiler.stats = Kft_sim.Interp.copy_stats p.stats })
      ps

  let entry_of_run (r : Kft_sim.Profiler.run) =
    {
      e_profiles = copy_profiles r.Kft_sim.Profiler.profiles;
      e_total_us = r.Kft_sim.Profiler.total_time_us;
      e_memory = Kft_sim.Memory.snapshot r.Kft_sim.Profiler.memory;
    }

  let run_of_entry e : Kft_sim.Profiler.run =
    {
      Kft_sim.Profiler.profiles = copy_profiles e.e_profiles;
      total_time_us = e.e_total_us;
      memory = Kft_sim.Memory.restore e.e_memory;
    }
end

let profile ?cache ?engine ?trace ?(seed = 42) device prog =
  (* cache attribution is per profiled program: hit/miss counters are a
     pure function of the call sequence, so they stay in the canonical
     trace channel *)
  Kft_trace.Trace.with_span trace ("profile:" ^ prog.p_name) @@ fun () ->
  match cache with
  | None -> Kft_sim.Profiler.profile ?engine ?trace ~seed device prog
  | Some c -> (
      let key = Sim_cache.key ~seed device prog in
      match Sim_cache.Cache.find c key with
      | Some entry ->
          Kft_trace.Trace.add trace "sim_cache_hits" 1;
          Sim_cache.run_of_entry entry
      | None ->
          Kft_trace.Trace.add trace "sim_cache_misses" 1;
          let run = Kft_sim.Profiler.profile ?engine ?trace ~seed device prog in
          (* the cache holds a private snapshot: callers are free to
             mutate the run they got back without corrupting future hits *)
          Sim_cache.Cache.add c key (Sim_cache.entry_of_run run);
          run)

let gather ?cache ?engine ?trace ?(seed = 42) device prog =
  let run = profile ?cache ?engine ?trace ~seed device prog in
  (* map: host array -> kernels touching it *)
  let array_users : (string, string list) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (function
      | Launch l ->
          List.iter
            (fun a ->
              let cur = Option.value ~default:[] (Hashtbl.find_opt array_users a) in
              if not (List.mem l.l_kernel cur) then Hashtbl.replace array_users a (l.l_kernel :: cur))
            (touched_host_arrays prog l)
      | _ -> ())
    prog.p_schedule;
  let performance =
    List.map
      (fun (p : Kft_sim.Profiler.kernel_profile) ->
        let s = p.stats in
        {
          kernel = p.kernel;
          runtime_us = p.timing.runtime_us;
          flops = s.flops;
          bytes = float_of_int (s.global_read_bytes + s.global_write_bytes);
          effective_bw_gbs = p.timing.effective_bandwidth_gbs;
          shared_per_block = s.shared_bytes_per_block;
          regs_per_thread = p.regs_per_thread;
          active_threads = s.threads_launched;
          active_blocks_per_sm = p.timing.occupancy.active_blocks_per_sm;
          occupancy = p.timing.occupancy.occupancy;
          divergence = Kft_sim.Interp.divergence_fraction s;
        })
      run.profiles
  in
  let operations =
    List.map
      (fun (p : Kft_sim.Profiler.kernel_profile) ->
        let kernel = find_kernel prog p.kernel in
        let env = Kft_analysis.Access.env_of_launch prog p.launch in
        let host_of param =
          match List.assoc_opt param env.param_binding with Some h -> h | None -> param
        in
        match p.access with
        | Error reason ->
            {
              o_kernel = p.kernel;
              domain = p.launch.l_domain;
              block = p.launch.l_block;
              arrays =
                List.map
                  (fun a -> { array = host_of a; reads = 0; writes = 0; radius = (0, 0, 0); array_flops = 0.0 })
                  (referenced_arrays kernel);
              loops = [];
              nest_depth = 0;
              active_fraction = 1.0;
              stride = 1;
              shared_arrays = [];
              irregular = Some (Kft_analysis.Access.reason_to_string reason);
            }
        | Ok info ->
            let params = dedup (List.map (fun (a : Kft_analysis.Access.access) -> a.array) info.accesses) in
            let flops_per_thread = p.cost.flops_per_thread in
            let n_params = max 1 (List.length params) in
            let arrays =
              List.map
                (fun param ->
                  let reads =
                    List.length (Kft_analysis.Access.read_offsets info param)
                  in
                  let writes =
                    List.length
                      (List.filter
                         (fun (a : Kft_analysis.Access.access) -> a.array = param && a.rw = Write)
                         info.accesses)
                  in
                  {
                    array = host_of param;
                    reads;
                    writes;
                    radius = Kft_analysis.Access.stencil_radius info param;
                    array_flops = flops_per_thread /. float_of_int n_params;
                  })
                params
            in
            let shared_arrays =
              List.filter
                (fun a ->
                  match Hashtbl.find_opt array_users a.array with
                  | Some users -> List.exists (fun u -> u <> p.kernel) users
                  | None -> false)
                arrays
              |> List.map (fun a -> a.array)
            in
            {
              o_kernel = p.kernel;
              domain = p.launch.l_domain;
              block = p.launch.l_block;
              arrays;
              loops =
                List.map
                  (fun (l : Kft_analysis.Access.loop_info) ->
                    { loop_var = l.loop_var; trip = l.trip_count; vertical = l.dimension = `Vertical })
                  info.loops;
              nest_depth = info.max_nest_depth;
              active_fraction = info.active_fraction;
              stride = 1;
              shared_arrays;
              irregular = None;
            })
      run.profiles
  in
  ({ performance; operations; device }, run)

let find_perf t k = List.find (fun p -> p.kernel = k) t.performance

let find_ops t k = List.find (fun o -> o.o_kernel = k) t.operations

(* ------------------------------------------------------------------ *)
(* Text round-trip                                                     *)
(* ------------------------------------------------------------------ *)

let triple_to_string (a, b, c) = Printf.sprintf "%d,%d,%d" a b c

let triple_of_string s =
  match String.split_on_char ',' s with
  | [ a; b; c ] -> (int_of_string a, int_of_string b, int_of_string c)
  | _ -> failwith ("malformed triple: " ^ s)

let perf_to_text entries =
  let buf = Buffer.create 1024 in
  List.iter
    (fun p ->
      Buffer.add_string buf (Printf.sprintf "[kernel %s]\n" p.kernel);
      Buffer.add_string buf (Printf.sprintf "runtime_us = %.6f\n" p.runtime_us);
      Buffer.add_string buf (Printf.sprintf "flops = %.1f\n" p.flops);
      Buffer.add_string buf (Printf.sprintf "bytes = %.1f\n" p.bytes);
      Buffer.add_string buf (Printf.sprintf "effective_bw_gbs = %.4f\n" p.effective_bw_gbs);
      Buffer.add_string buf (Printf.sprintf "shared_per_block = %d\n" p.shared_per_block);
      Buffer.add_string buf (Printf.sprintf "regs_per_thread = %d\n" p.regs_per_thread);
      Buffer.add_string buf (Printf.sprintf "active_threads = %d\n" p.active_threads);
      Buffer.add_string buf (Printf.sprintf "active_blocks_per_sm = %d\n" p.active_blocks_per_sm);
      Buffer.add_string buf (Printf.sprintf "occupancy = %.4f\n" p.occupancy);
      Buffer.add_string buf (Printf.sprintf "divergence = %.4f\n\n" p.divergence))
    entries;
  Buffer.contents buf

type section = { header : string; kvs : (string * string) list; lines : string list }

let parse_sections text =
  let lines = String.split_on_char '\n' text in
  let sections = ref [] in
  let cur = ref None in
  let flush () =
    match !cur with
    | Some s -> sections := { s with kvs = List.rev s.kvs; lines = List.rev s.lines } :: !sections
    | None -> ()
  in
  List.iter
    (fun raw ->
      let line = String.trim raw in
      if line = "" || line.[0] = '#' then ()
      else if line.[0] = '[' then begin
        flush ();
        let header = String.trim (String.sub line 1 (String.length line - 2)) in
        cur := Some { header; kvs = []; lines = [] }
      end
      else
        match !cur with
        | None -> failwith ("content outside a [section]: " ^ line)
        | Some s -> (
            let starts_with p =
              String.length line >= String.length p && String.sub line 0 (String.length p) = p
            in
            match String.index_opt line '=' with
            | Some i when i > 0 && not (starts_with "array " || starts_with "loop ") ->
                let k = String.trim (String.sub line 0 i) in
                let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
                cur := Some { s with kvs = (k, v) :: s.kvs }
            | _ -> cur := Some { s with lines = line :: s.lines }))
    lines;
  flush ();
  List.rev !sections

let kernel_of_header h =
  match String.split_on_char ' ' h with
  | [ "kernel"; name ] -> name
  | _ -> failwith ("expected [kernel <name>] section, got [" ^ h ^ "]")

let perf_of_text text =
  parse_sections text
  |> List.map (fun s ->
         let get k =
           match List.assoc_opt k s.kvs with
           | Some v -> v
           | None -> failwith (Printf.sprintf "performance metadata: missing %s in [%s]" k s.header)
         in
         {
           kernel = kernel_of_header s.header;
           runtime_us = float_of_string (get "runtime_us");
           flops = float_of_string (get "flops");
           bytes = float_of_string (get "bytes");
           effective_bw_gbs = float_of_string (get "effective_bw_gbs");
           shared_per_block = int_of_string (get "shared_per_block");
           regs_per_thread = int_of_string (get "regs_per_thread");
           active_threads = int_of_string (get "active_threads");
           active_blocks_per_sm = int_of_string (get "active_blocks_per_sm");
           occupancy = float_of_string (get "occupancy");
           divergence = float_of_string (get "divergence");
         })

let ops_to_text entries =
  let buf = Buffer.create 1024 in
  List.iter
    (fun o ->
      Buffer.add_string buf (Printf.sprintf "[kernel %s]\n" o.o_kernel);
      Buffer.add_string buf (Printf.sprintf "domain = %s\n" (triple_to_string o.domain));
      Buffer.add_string buf (Printf.sprintf "block = %s\n" (triple_to_string o.block));
      Buffer.add_string buf (Printf.sprintf "nest_depth = %d\n" o.nest_depth);
      Buffer.add_string buf (Printf.sprintf "active_fraction = %.4f\n" o.active_fraction);
      Buffer.add_string buf (Printf.sprintf "stride = %d\n" o.stride);
      Buffer.add_string buf
        (Printf.sprintf "shared_arrays = %s\n" (String.concat "," o.shared_arrays));
      (match o.irregular with
      | Some r -> Buffer.add_string buf (Printf.sprintf "irregular = %s\n" r)
      | None -> ());
      List.iter
        (fun a ->
          Buffer.add_string buf
            (Printf.sprintf "array %s reads=%d writes=%d radius=%s flops=%.2f\n" a.array a.reads
               a.writes (triple_to_string a.radius) a.array_flops))
        o.arrays;
      List.iter
        (fun l ->
          Buffer.add_string buf
            (Printf.sprintf "loop %s trip=%d vertical=%b\n" l.loop_var l.trip l.vertical))
        o.loops;
      Buffer.add_char buf '\n')
    entries;
  Buffer.contents buf

let split_ws s = String.split_on_char ' ' s |> List.filter (fun x -> x <> "")

let field fields name =
  let prefix = name ^ "=" in
  match
    List.find_opt (fun f -> String.length f > String.length prefix
                            && String.sub f 0 (String.length prefix) = prefix) fields
  with
  | Some f -> String.sub f (String.length prefix) (String.length f - String.length prefix)
  | None -> failwith ("missing field " ^ name)

let ops_of_text text =
  parse_sections text
  |> List.map (fun s ->
         let get k =
           match List.assoc_opt k s.kvs with
           | Some v -> v
           | None -> failwith (Printf.sprintf "operations metadata: missing %s in [%s]" k s.header)
         in
         let arrays =
           List.filter_map
             (fun line ->
               match split_ws line with
               | "array" :: name :: fields ->
                   Some
                     {
                       array = name;
                       reads = int_of_string (field fields "reads");
                       writes = int_of_string (field fields "writes");
                       radius = triple_of_string (field fields "radius");
                       array_flops = float_of_string (field fields "flops");
                     }
               | _ -> None)
             s.lines
         in
         let loops =
           List.filter_map
             (fun line ->
               match split_ws line with
               | "loop" :: name :: fields ->
                   Some
                     {
                       loop_var = name;
                       trip = int_of_string (field fields "trip");
                       vertical = bool_of_string (field fields "vertical");
                     }
               | _ -> None)
             s.lines
         in
         {
           o_kernel = kernel_of_header s.header;
           domain = triple_of_string (get "domain");
           block = triple_of_string (get "block");
           arrays;
           loops;
           nest_depth = int_of_string (get "nest_depth");
           active_fraction = float_of_string (get "active_fraction");
           stride = int_of_string (get "stride");
           shared_arrays =
             (match get "shared_arrays" with
             | "" -> []
             | s -> String.split_on_char ',' s);
           irregular = List.assoc_opt "irregular" s.kvs;
         })

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let to_files t ~dir =
  write_file (Filename.concat dir "performance.meta") (perf_to_text t.performance);
  write_file (Filename.concat dir "operations.meta") (ops_to_text t.operations);
  write_file (Filename.concat dir "device.meta") (Kft_device.Device.query_report t.device)

let of_files ~dir =
  {
    performance = perf_of_text (read_file (Filename.concat dir "performance.meta"));
    operations = ops_of_text (read_file (Filename.concat dir "operations.meta"));
    device = Kft_device.Device.of_query_report (read_file (Filename.concat dir "device.meta"));
  }
