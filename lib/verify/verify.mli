(** Static race / barrier / bounds verifier with translation validation
    ("kft_verify").

    The transformation pipeline's soundness story used to rest on the
    informal legality rules of [Fusion.check_group] plus dynamic checks
    in the simulator: a race or a divergent barrier in a {e generated}
    fused kernel was only caught if a test input happened to trip it.
    This module proves the absence of those defects statically, per
    launch, with four cooperating passes:

    {ol
    {- {b Race freedom} — for global arrays over the whole launch and
       for shared arrays per barrier interval of a block (barrier
       intervals are sound because pass 2 first proves every barrier
       uniform). Two accesses to one cell by distinct threads, at least
       one a write, with no barrier ordering them, is a race. Proved
       first on the kft_absint affine forms of every access (see
       Proofs below); a launch with an array the proof cannot cover is
       walked thread by thread instead (see Fallback).}
    {- {b Barrier divergence} — statically proves no barrier sits under
       a thread-dependent conditional or inside a loop whose trip count
       depends on [threadIdx] (a taint analysis from [threadIdx] through
       scalar assignments; the simulator only catches this dynamically).}
    {- {b Bounds / halo checking} — every global access's linearized
       index is checked against the bound array's extent for every
       walked thread, and shared subscripts against the declared tile
       shape, so an out-of-bounds halo read is reported with the exact
       offending index.}
    {- {b Translation validation} — passes 1–3 run over every kernel
       [Codegen]/[Fusion] emit, and fused kernels are additionally
       checked to preserve the member-order dependences recorded in the
       source program's DDG/OEG, with the group's legality re-derived
       through [Fusion.check_group]. A failed validation rejects the
       group (the framework re-emits its members unfused), mirroring
       {e and} cross-checking the forward legality rules.}
    {- {b Schedule validation} — the whole-schedule dataflow analysis
       of [Kft_schedflow.Schedflow] runs over the transformed schedule
       (flagging non-input arrays read before any write and stores
       never read back) and every RAW / WAR / WAW dependence of the
       source schedule DDG is checked to hold end-to-end in the
       transformed schedule, complementing the per-group member-order
       check with inter-kernel coverage.}}

    Proofs: an array is race-free when all its write sites share one
    affine index form over threadIdx, blockIdx and loop trip counters
    that a dominance (mixed-radix) test shows injective over the threads
    and blocks — on the linear index, or coordinate-wise after
    delinearizing it over the array's dimensions under the enclosing
    guards — and every read either has that form, touches provably
    disjoint cells (index ranges; or, per case of a negated guard, one
    delinearized coordinate, as in the guard-complement halo preloads
    of fused kernels), or shares with the write the coordinates that
    pin the thread. Shared arrays are checked per static barrier
    interval, where the block index and the counters of barrier loops
    whose intervals see one iteration are fixed. The verdict covers
    every thread of every block; [stats.race_proved] counts such
    launches.

    Fallback: a launch with an unproved array (or unproved bounds) is
    replayed by a concrete per-thread walker over a sample of blocks —
    the grid corners plus the first interior neighbours, where halo
    overlap between adjacent blocks materializes — and every thread of
    each; [stats.race_fallback] counts these launches and
    [race_fallbacks] names their unproved arrays. Each walked launch has
    its own event budget; exhausting it leaves that launch unchecked
    and the report incomplete rather than wrong, and no launch is ever
    skipped. *)

type pass = Race | Barrier | Bounds | Translation | Schedule | Engine

type diagnostic = {
  d_kernel : string;  (** kernel the defect was found in *)
  d_pass : pass;
  d_loc : Kft_cuda.Loc.pos;
      (** source position of the offending statement when the kernel was
          parsed from text; {!Kft_cuda.Loc.none} for synthesized ASTs *)
  d_stmt : string;  (** one-line rendering of the offending statement *)
  d_array : string;
      (** array the finding is about, [""] when not array-specific. Part
          of the dedupe/order key, so two different-array findings at
          the same kernel:line:col both survive {!merge}. *)
  d_message : string;
}

val pp_diagnostic : diagnostic -> string
(** [kernel:line:col:[pass] message -- statement], matching the uniform
    [where:what] shape of [Cuda.Check.pp_error]. *)

type stats = {
  launches_checked : int;
  blocks_sampled : int;
  threads_walked : int;
  events : int;  (** statements executed by the per-thread walker *)
  bounds_proved : int;
      (** launches whose every access the kft_absint bounds pass proved
          in bounds (no sampling needed for subscripts) *)
  bounds_fallback : int;
      (** launches with at least one access the abstract domain could
          not decide: the sampled bounds walk remains authoritative *)
  race_proved : int;
      (** launches whose every global and shared array the whole-grid
          affine race proof covers: no thread is walked for races *)
  race_fallback : int;
      (** launches with an array the proof could not cover (or a
          divergent barrier): the sampled walker decides their races *)
  sched_deps_checked : int;
      (** source schedule dependences checked end-to-end by {!validate} *)
  sched_fallback : int;
      (** source launches (or transformed members) the schedule mapping
          could not place — 0 means full schedule-DDG coverage *)
}

type report = {
  diagnostics : diagnostic list;
  stats : stats;
  complete : bool;  (** [false] when a launch's walk exhausted its event budget *)
  race_fallbacks : (string * string) list;
      (** (kernel, array) pairs the race proof could not cover, sorted:
          their launches were walked *)
}

val empty_report : report

val pass_counts : report -> (string * int) list
(** Finding count per pass, always all six passes in declaration order
    — the deterministic per-pass counters the trace layer records. *)

val merge : report -> report -> report

val is_clean : report -> bool
(** No diagnostics at all (engine notes included: an advisory the engine
    could not resolve statically is not a clean bill). *)

val fatal_failure : launches:int -> report -> string option
(** Why a fatal-mode run fails on this report of a program with
    [launches] launches: its defects, or an incomplete analysis with the
    count of launches left unchecked. [None] when the report is clean and
    complete. *)

val verify_program : ?budget:int -> ?walk:bool -> Kft_cuda.Ast.program -> report
(** Passes 1–3 over every launch of the schedule.  [budget] bounds the
    walker's events per walked launch (default 10 M).  [~walk:true] also
    runs the sampled walker's race checks on launches the proof covered
    (the differential check of the proof against the walker). *)

val validate :
  ?budget:int ->
  ?options:Kft_codegen.Fusion.options ->
  source:Kft_cuda.Ast.program ->
  Kft_codegen.Codegen.result ->
  report
(** Translation validation (passes 4–5) of a code-generation result
    against the [source] program it was derived from (post-fission):
    verifies every emitted kernel with passes 1–3, re-checks each fused
    group's legality through [Fusion.check_group] on freshly extracted
    canonical members, rejects fused kernels whose member order
    contradicts the source OEG, and validates the whole transformed
    schedule against the source schedule DDG (pass [schedule]: issue
    checks plus end-to-end dependence preservation, with
    [sched_deps_checked] / [sched_fallback] recorded in the stats).
    Diagnostics carry the {e fused} kernel's name. *)
