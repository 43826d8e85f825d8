(** Directed graphs with string-keyed nodes carrying a payload.

    This is the graph substrate underneath the Data Dependency Graph and
    Order-of-Execution Graph of the paper (Section 3.2.3) and the array
    dependence graph used by kernel fission (Algorithm 2). Nodes are
    identified by unique string keys; payloads are arbitrary. All
    operations are imperative; [copy] gives an independent snapshot. *)

type 'a t

exception Cycle of string list
(** Raised by {!topo_sort} with one witness cycle (a list of node keys in
    order, first = last omitted). *)

exception Duplicate_node of string
exception No_such_node of string

val create : unit -> 'a t

val copy : 'a t -> 'a t

val add_node : 'a t -> key:string -> 'a -> unit
(** Raises {!Duplicate_node} if [key] is already present. *)

val ensure_node : 'a t -> key:string -> 'a -> unit
(** Like {!add_node} but a no-op when [key] is already present. *)

val remove_node : 'a t -> string -> unit
(** Removes the node and all incident edges. Raises {!No_such_node}. *)

val mem_node : 'a t -> string -> bool

val payload : 'a t -> string -> 'a
(** Raises {!No_such_node}. *)

val add_edge : 'a t -> string -> string -> unit
(** [add_edge g a b] adds the edge a->b (idempotent). Both endpoints must
    exist; raises {!No_such_node} otherwise. *)

val remove_edge : 'a t -> string -> string -> unit

val mem_edge : 'a t -> string -> string -> bool

val succs : 'a t -> string -> string list
(** Successors in insertion order. *)

val preds : 'a t -> string -> string list

val nodes : 'a t -> string list
(** All node keys in insertion order. *)

val edges : 'a t -> (string * string) list

val node_count : 'a t -> int

val edge_count : 'a t -> int

val topo_sort : 'a t -> string list
(** Stable topological order (ties broken by insertion order), in
    O((V + E) log V). Raises {!Cycle} when the graph is cyclic. *)

val find_cycle : 'a t -> string list option
(** [Some cycle] when the graph has a directed cycle, [None] otherwise. *)

val is_dag : 'a t -> bool

val reachable : 'a t -> src:string -> dst:string -> bool
(** Directed reachability ([src] reaches itself). *)

val bfs : 'a t -> root:string -> string list
(** Nodes reachable from [root] following edges in either direction
    (i.e. BFS on the underlying undirected graph), in visit order. This
    is the traversal of Algorithm 2. *)

val components : 'a t -> string list list
(** Weakly connected components, each in BFS order from its first
    (insertion-order) node; components ordered by their first node. *)

val quotient : 'a t -> group_of:(string -> string) -> 'a t
(** Condense nodes by the partition [group_of]: the quotient node for
    group [g] carries the payload of the first member (insertion order)
    and key [g]. Self-loops arising from intra-group edges are dropped;
    parallel edges are merged. Used to test fusion feasibility: a fusion
    grouping is legal iff the quotient of the OEG is acyclic. *)

val to_dot :
  ?graph_name:string ->
  ?node_attrs:(string -> 'a -> (string * string) list) ->
  ?edge_attrs:(string -> string -> (string * string) list) ->
  'a t ->
  string
(** GraphViz DOT rendering (the paper's DDG/OEG DOT files). *)

val of_dot_edges : string -> (string * string) list
(** Minimal DOT reader: extracts ["a" -> "b"] edge lines from a DOT
    string previously produced by {!to_dot} (possibly hand-edited by the
    programmer, Section 3.2.4). Node attribute lines are ignored. *)
