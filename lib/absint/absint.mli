(** Forward abstract interpreter over the CUDA subset.

    The domain is a reduced product of saturating integer intervals and
    symbolic affine forms over the launch symbols (threadIdx, blockIdx),
    loop trip counters (a loop variable is [lo + step*m]) and the
    quotient / remainder of a nonnegative form by a constant, with
    blockDim / gridDim / integer kernel arguments folded in as constants
    of a concrete launch.  On the stencil subset this is precise enough
    to *prove* every global and shared access in bounds, to decide
    generated guards, to predict per-kernel global traffic exactly for
    affine kernels, and to give kft_verify the index form, guard facts
    and barrier interval of every access for its whole-grid race proof.

    Three clients:
    - {!analyze_kernel} / {!analyze_launch}: proved bounds, per-array
      footprints and per-access race facts (kft_verify's bounds pass and
      race proof);
    - {!simplify_kernel}: guard elimination for fused kernels — an [If]
      whose condition is decided by the block domain is spliced away;
    - the access / guard records consumed by {!Lint}. *)

type itv = { lo : int; hi : int }
(** Closed integer interval, saturating at [+-big] (2{^44}). *)

val itv_width : itv -> int
val pp_itv : itv -> string

type status =
  | Proved  (** every concrete index lies inside the extent *)
  | Oob  (** every concrete index lies outside the extent *)
  | Unknown  (** the interval straddles the extent: fall back to sampling *)

type space = Global | Shared

type form = { f_terms : (int * int) list; f_const : int }
(** Affine form: the sum of [coefficient * symbol] over [f_terms]
    ((symbol, coefficient) pairs, sorted by symbol, nonzero) plus
    [f_const].  Symbols index {!result.res_syms}. *)

type sym_kind =
  | Thread of int  (** threadIdx along axis 0/1/2 (x/y/z) *)
  | Block of int  (** blockIdx along axis 0/1/2 *)
  | Trip of bool
      (** trip counter [m] of a loop whose variable is [lo + step*m].
          [true] when the loop body holds a barrier and its tail after
          the last barrier touches no array, so that every barrier
          interval of the loop sees a single value of [m] *)
  | Quot of form * int  (** [c / w] of a nonnegative form [c] *)
  | Rem of form * int  (** [c % w] of a nonnegative form [c] *)

type sym = { sy_kind : sym_kind; sy_range : itv }

type cond =
  | Holds of form  (** the form is [>= 0] *)
  | Fails of form list
      (** not every form is [>= 0]: the else-branch of a conjunction of
          comparisons, e.g. a halo preload under the negation of a
          producer's guard *)

type access = {
  acc_array : string;  (** kernel parameter name *)
  acc_space : space;
  acc_write : bool;
  acc_loc : Kft_cuda.Loc.pos;
  acc_status : status;
  acc_range : itv;  (** linearized index interval *)
  acc_extent : int;  (** cells (global) or product of declared dims (shared) *)
  acc_form : form option;
      (** the linearized index over thread, block, trip and derived
          symbols, when affine.  A shared [s[c / w][c % w]] subscript
          into a tile of width [w] is folded back into [c] *)
  acc_guards : cond list;
      (** affine facts of the enclosing guards and loop bounds; atoms
          outside the affine fragment are dropped (a weaker guard) *)
  acc_interval : int;
      (** static barrier interval: two accesses of one block can share a
          dynamic barrier interval only if their [acc_interval] agree *)
  acc_bytes : float;  (** estimated global traffic of this site, bytes *)
  acc_exact : bool;  (** the traffic estimate is exact, not an upper bound *)
}

type guard = {
  gu_loc : Kft_cuda.Loc.pos;
  gu_cond : string;  (** pretty-printed condition *)
  gu_decided : bool option;  (** [Some b]: statically decided, i.e. dead *)
  gu_thread_dep : bool;  (** condition depends on the thread id: divergent *)
  gu_frac : float;  (** estimated fraction of threads taking the then branch *)
}

type footprint = { fp_reads : itv option; fp_writes : itv option }

type result = {
  res_kernel : string;
  res_accesses : access list;  (** in evaluation order *)
  res_guards : guard list;
  res_proved : int;  (** accesses with status [Proved] *)
  res_unknown : int;
  res_oob : int;
  res_all_proved : bool;  (** no [Unknown], no [Oob]: bounds are proved *)
  res_est_bytes : float;  (** summed global-traffic estimate *)
  res_est_exact : bool;  (** every estimate exact and no early [return] *)
  res_footprints : (string * footprint) list;
      (** per global array (parameter name), sorted *)
  res_syms : sym array;  (** symbol table of every [acc_form], by id *)
}

val form_range : sym array -> form -> itv
(** Interval of a form over the symbols' ranges (saturating). *)

val tx_stride : sym array -> access -> int option
(** d(linearized index)/d(threadIdx.x) when the index is affine in the
    launch and trip symbols alone (no quotient or remainder). *)

val analyze_kernel :
  block:int * int * int ->
  grid:int * int * int ->
  int_params:(string * int) list ->
  global_cells:(string * int) list ->
  Kft_cuda.Ast.kernel ->
  result
(** Abstractly execute one kernel under a concrete launch shape.
    [int_params] binds integer scalar parameters to their argument
    values; [global_cells] gives the extent of each global array
    parameter.  Never raises on subset programs. *)

val analyze_launch :
  Kft_cuda.Ast.program -> Kft_cuda.Ast.launch -> result option
(** Resolve a launch against its program (kernel lookup, argument
    binding, array extents) and analyze it.  [None] if the kernel is
    missing or the arguments do not match the parameter list. *)

val simplify_kernel :
  block:int * int * int ->
  grid:int * int * int ->
  int_params:(string * int) list ->
  Kft_cuda.Ast.kernel ->
  Kft_cuda.Ast.kernel * int
(** Guard elimination: rebuild the kernel body, splicing away every
    [If] whose condition the domain decides ([If c t e] becomes [t]
    when [c] is proved true, [e] when proved false).  Returns the
    rewritten kernel and the number of guards eliminated.  Sound by
    construction — only decided conditions are touched — and intended
    to be translation-validated by kft_verify downstream. *)
