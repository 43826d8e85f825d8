(** Data Dependency Graph and Order-of-Execution Graph (Section 3.2.3,
    Algorithm 1).

    The DDG has a node per kernel invocation and per data array target of
    locality; array->kernel edges express reads, kernel->array edges
    express writes. The OEG has kernel invocations only; its edges are
    the inter-kernel precedences that the transformation must not
    violate.

    Two graph optimizations from the paper are implemented:
    - write-read cycles between two kernels are broken by the precedence
      of host invocation order (the OEG heuristic);
    - arrays with several writers get redundant instances (one per
      writer) to relax false dependencies. *)

type invocation = {
  inv_key : string;  (** unique node key: kernel name, "#n"-suffixed on re-launch *)
  inv_kernel : string;
  inv_index : int;  (** position in the host schedule *)
  inv_launch : Kft_cuda.Ast.launch;
}

type node =
  | Kernel_node of invocation
  | Array_node of { base : string; version : int }
      (** [version > 0] marks a redundant instance introduced by the
          multi-writer optimization *)

type reach
(** Reachability index of the OEG: the strict descendants and ancestors
    of every invocation as bitsets, computed once by {!build} and
    read-only afterwards (safe to share across domains). It describes the
    OEG as built; mutating [oeg] later does not update it. *)

type t = {
  ddg : node Kft_graph.Digraph.t;
  oeg : node Kft_graph.Digraph.t;
  invocations : invocation list;  (** in schedule order *)
  versioned_arrays : (string * int) list;
      (** arrays that received redundant instances, with instance count —
          reported to the programmer as changes made to optimize the
          graphs *)
  reach : reach;
}

val build : Kft_cuda.Ast.program -> t
(** Algorithm 1 + graph optimizations + OEG derivation. The OEG contains
    an edge Ki -> Kj (i earlier than j in the host schedule) for every
    RAW, WAR or WAW pair between the two invocations, reduced
    transitively, and its reachability index, in O(V·E/63) word
    operations for V invocations and E dependent pairs. *)

val arrays_touched : Kft_cuda.Ast.program -> Kft_cuda.Ast.launch -> (string list * string list)
(** (read host arrays, written host arrays) of one launch. *)

val oeg_precedes : t -> string -> string -> bool
(** [oeg_precedes t a b]: invocation [a] must execute before [b]
    (transitive). One bit lookup; raises
    {!Kft_graph.Digraph.No_such_node} when [a <> b] and either is not an
    invocation key. *)

val fusion_feasible : t -> string list -> bool
(** A set of invocation keys may be fused iff contracting them to one
    node leaves the OEG acyclic (no path leaves the group and comes
    back). Keys that are not invocations are ignored. Answered from the
    reachability index: the group is infeasible iff some invocation
    outside it is both a descendant and an ancestor of group members, in
    O(|group|·V/63) word operations after the O(V·E/63) {!build}. *)

val groups_feasible : t -> units_of:(string -> string list) -> string list list -> bool
(** Joint schedulability of a whole solution: contracting every group at
    once leaves the OEG acyclic (two individually feasible groups can
    still each need the other first). Invocation [k] stands for the
    distinct, non-empty units [units_of k] (its fission parts, say), which
    inherit its OEG edges and are mutually unordered. Names that are not
    units are ignored; a unit listed in several groups belongs to the
    last. Answered from the reachability index in O(G·(|units| + G·V/63))
    for G groups. *)

val group_has_internal_precedence : t -> string list -> bool
(** True when some pair inside the group is ordered by the OEG — the
    "complex fusion" case of Section 5.5.3. *)

val ddg_dot : t -> string

val oeg_dot : t -> string

val oeg_of_amended_dot : t -> string -> (string * string) list
(** Re-read OEG edges from a programmer-amended DOT file, keeping only
    edges whose endpoints are known invocations (Section 3.2.4). *)
