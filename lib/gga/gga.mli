(** Customized Grouped Genetic Algorithm (Sections 2, 4.1, 5.4).

    Individuals are partitions of the target kernel invocations into
    fusion groups; the grouping-aware operators (Falkenauer-style group
    injection crossover, split/merge/move mutation) manipulate groups,
    not genes, so offspring remain valid partitions.

    Fitness is the projected-GFLOPS objective penalized per the dynamic
    penalty function of Section 4.1: each violated constraint adds a
    constant penalty [C_i]; a violated shared-memory capacity constraint
    is *relaxed* when some member can be fissioned — lazy fission
    replaces the member by its pre-profiled parts (keeping in the group
    only the parts that share data with the rest) — and penalized harder
    ([c_sm_stuck]) when no member can. *)

type params = {
  population : int;
  generations : int;
  crossover_rate : float;
  mutation_rate : float;
  tournament : int;
  elitism : int;
  seed : int;
  c_violation : float;  (** [C_i]: penalty per violated precedence/subset constraint *)
  c_sm_stuck : float;  (** penalty when the shared-memory constraint is violated and no fission can relax it *)
  fission_enabled : bool;  (** lazy fission on/off (ablation) *)
}

val default_params : params
(** The paper's defaults: population 100, 500 generations. *)

val params_to_text : params -> string

val params_of_text : string -> params
(** Round-trip of the parameter file the programmer may edit
    (Section 3.2.4). Raises [Failure] on malformed input. *)

type problem = {
  units : Kft_perfmodel.Perfmodel.unit_model list;
      (** target kernel invocations (filtered; in schedule order) *)
  fission_parts : (string * Kft_perfmodel.Perfmodel.unit_model list) list;
      (** lazy-fission pre-step: per fissionable kernel, the models of
          its parts (each part name is unique) *)
  part_arrays : (string * string list) list;
      (** host arrays touched per fission part (to decide which parts
          stay in the violating group) *)
  feasible : string list -> bool;
      (** may this set of units be fused? (contracting them leaves the OEG
          acyclic) *)
  solution_feasible : groups:string list list -> fissioned:string list -> bool;
      (** joint schedulability of a whole solution: contracting every
          group simultaneously must leave the OEG acyclic (two
          individually feasible groups can still deadlock each other) *)
  objective : Kft_perfmodel.Perfmodel.unit_model list list -> float;
      (** black-box solution objective, higher is better (projected GFLOPS) *)
  shared_ok : Kft_perfmodel.Perfmodel.unit_model list -> bool;
      (** does the group's staging footprint fit per-block shared memory? *)
}

type solution = {
  groups : string list list;
  fissioned : string list;  (** original kernels replaced by their parts *)
  fitness : float;
  raw_objective : float;
  violations : int;
}

type engine_stats = {
  es_jobs : int;  (** evaluation width of the engine the search ran on *)
  es_memo : bool;  (** was the fitness memo cache enabled? *)
  es_requested : int;  (** fitness evaluations requested (= [evaluations]) *)
  es_computed : int;  (** distinct evaluations actually computed *)
  es_hit_rate : float;  (** [1 - computed/requested]: fraction served by the memo *)
  es_search_wall_s : float;  (** wall-clock seconds of the whole search *)
  es_gen_wall_s : float;  (** average wall-clock seconds per generation *)
}
(** Throughput statistics of one search. The wall-clock fields are the
    only non-deterministic part of a {!result}; everything else is
    bit-identical for a fixed [params.seed] at any worker count, with the
    memo cache on or off. *)

type result = {
  best : solution;
  history : (int * float) list;  (** (generation, best fitness) when improved *)
  fission_events : int;
  avg_fissions_per_generation : float;
  converged_at : int;  (** first generation within 0.1 % of the final best *)
  evaluations : int;  (** fitness evaluations requested (memo hits included) *)
  engine_stats : engine_stats;
}

val run :
  ?on_generation:(int -> solution -> unit) ->
  ?engine:Kft_engine.Engine.t ->
  ?trace:Kft_trace.Trace.t ->
  params -> problem -> result
(** Deterministic for a fixed [params.seed]: each generation is bred
    entirely in the calling (coordinator) domain — every RNG draw happens
    there, in a fixed order — and scored as one batch through the
    engine's pool, whose results are reduced in submission order. Genomes
    are canonicalized (sorted groups + fissioned set) before evaluation,
    making fitness a pure function of the canonical key, so the memo
    cache is transparent: [best]/[history]/[evaluations]/[fission_events]
    are bit-identical across [jobs] ∈ {1, 2, 4, ...} and cache on/off.

    [trace] records one [gen:<n>] span per generation ([gen:0] is the
    initial scoring) with evaluation-batch counters and population
    fitness stats — all deterministic, so they live in the trace's
    canonical channel.

    [engine] defaults to a private sequential engine with the memo cache
    enabled. A caller-supplied engine is not shut down by this function
    and may be reused across searches (the memo cache itself is
    per-search: keys are only unique within one problem). Requires the
    [problem] callbacks to be thread-safe when [jobs > 1]. *)

(** Search internals exposed for the property-test suite ([test_gga]):
    the grouping operators, structural repair, canonicalization and raw
    evaluation. Not part of the stable API. *)
module Internal : sig
  type genome = { g_groups : string list list; g_fissioned : string list }

  val model_table :
    problem -> (string, Kft_perfmodel.Perfmodel.unit_model) Hashtbl.t

  val normalize : genome -> genome
  (** Canonical form: members sorted within groups, groups sorted,
      fissioned set sorted + deduplicated. *)

  val cache_key : genome -> string
  (** Memo key of a canonical genome. *)

  val repair_partition :
    units:string list -> parts:(string * string list) list -> genome -> genome
  (** Make the genome a valid partition of its effective unit set (each
      fissioned original replaced by its parts): duplicates dropped,
      stale originals expanded, missing units appended as singletons.
      Idempotent. *)

  val random_partition : Random.State.t -> string list -> string list list

  val crossover : Random.State.t -> genome -> genome -> genome
  (** Falkenauer-style group injection. May leave the result in need of
      {!repair_partition} when the parents' fission states differ. *)

  val mutate :
    Random.State.t ->
    (string, Kft_perfmodel.Perfmodel.unit_model) Hashtbl.t ->
    genome -> genome

  val evaluate :
    params -> problem ->
    (string, Kft_perfmodel.Perfmodel.unit_model) Hashtbl.t ->
    genome -> solution * genome * int
  (** [solution, repaired genome, fission events]. Pure function of the
      (canonical) genome. The returned genome is a fixpoint: evaluating
      it again returns it unchanged. *)
end
