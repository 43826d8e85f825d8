(** Whole-schedule inter-kernel dataflow and liveness analyzer.

    Every other analysis in the repository is per-kernel; this one
    looks at the host schedule as a whole. For each host op (kernel
    launch or host<->device copy) it derives the set of device arrays
    read and written — at array granularity always, refined to a proved
    linearized element region whenever the abstract interpreter
    ({!Kft_absint.Absint}) proves every matching access and records an
    exact footprint. From the per-op access sets it computes:

    - def-use chains and liveness intervals per array (first/last
      read/write, schedule positions);
    - a schedule DDG: every RAW / WAR / WAW dependence between two host
      ops on the same array, with dependences {e refined away} when
      both end regions are proved and disjoint;
    - schedule-level issues: arrays read before any write that are not
      program inputs, and stores never observed by any later read or
      program output.

    Clients: the [schedule] pass of {!Kft_verify.Verify.validate}
    (issues + end-to-end schedule-DDG preservation of transformed
    schedules), three [kft lint] rules ({!lint}), and the [schedflow]
    stage of [Kft_framework.Framework.transform].

    Input/output conventions: with explicit [Copy_to_device] /
    [Copy_to_host] ops, the copied arrays are the program's inputs /
    outputs; a schedule with no copy ops (all bundled apps) treats
    {e every} array as both input and output, so the issue and lint
    predicates stay conservative there. *)

type region =
  | Whole  (** the whole extent (no proof, or a fallback) *)
  | Region of Kft_absint.Absint.itv
      (** proved linearized cell interval touched by the op *)

type op_kind =
  | Launch_op of Kft_cuda.Ast.launch
  | Copy_in of string  (** [Copy_to_device]: whole-extent write *)
  | Copy_out of string  (** [Copy_to_host]: whole-extent read *)

type op = {
  op_index : int;  (** position in the host schedule *)
  op_kind : op_kind;
  op_launch : int option;  (** position among launches, for launch ops *)
  op_reads : (string * region) list;  (** host arrays read, name-sorted *)
  op_writes : (string * region) list;  (** host arrays written, name-sorted *)
}

type array_info = {
  ai_name : string;
  ai_cells : int;
  ai_input : bool;  (** copied in, or no copy ops in the schedule *)
  ai_output : bool;  (** copied out, or no copy ops in the schedule *)
  ai_first : int option;  (** first accessing op *)
  ai_last : int option;  (** last accessing op *)
  ai_first_read : int option;
  ai_first_write : int option;
  ai_last_read : int option;
  ai_last_write : int option;
}

type dep_kind = Raw | War | Waw

type dep = {
  dep_src : int;  (** earlier op index *)
  dep_dst : int;  (** later op index *)
  dep_array : string;
  dep_kind : dep_kind;
}

type issue =
  | Read_before_write of { rb_array : string; rb_op : int }
      (** a non-input array is read before any schedule write *)
  | Dead_store of { ds_array : string; ds_op : int }
      (** the last write to a non-output array is never read back *)

val pp_issue : issue -> string

type stats = {
  st_ops : int;
  st_launches : int;
  st_arrays : int;
  st_deps : int;  (** dependences kept in {!field-deps} *)
  st_deps_refined : int;  (** dropped: both end regions proved disjoint *)
  st_regions_proved : int;  (** access-set entries with a proved region *)
  st_regions_fallback : int;  (** entries that fell back to [Whole] *)
}

type t = {
  program : Kft_cuda.Ast.program;
  ops : op list;  (** in schedule order *)
  arrays : array_info list;  (** name-sorted, one per declared array *)
  deps : dep list;  (** ordered by (src, dst, array, kind) *)
  issues : issue list;
  stats : stats;
}

val analyze : Kft_cuda.Ast.program -> t
(** Pure and deterministic; never raises on subset programs (a launch
    that does not resolve contributes an empty access set). *)

val live_interval : t -> string -> (int * int) option
(** [first, last] accessing op of one array; [None] if never accessed
    or not declared. *)

val launch_deps : t -> (int * int * string) list
(** The schedule DDG restricted to launches, as (earlier launch
    position, later launch position, array) triples, deduplicated and
    sorted — the obligation set that a transformed schedule must
    preserve. *)

(** {2 Lint rules}

    Three schedule-level rules rendered through the kft_absint lint
    pipeline (same finding type, total order and byte-stable JSON):

    - [dead-array] (warning): a non-output array never accessed, or
      written but never read;
    - [redundant-copy] (warning): a launch whose kernel only copies one
      array into another verbatim (proved element-identical by the
      abstract interpreter: identical index forms, equal footprints,
      every access proved);
    - [transient-global] (info): a non-input non-output array whose
      whole live range sits inside a single launch — a candidate for
      shared-memory or register staging after fusion. *)

val lint : t -> Kft_absint.Lint.finding list
(** Findings of the three schedule rules, normalized. *)

val lint_program : Kft_cuda.Ast.program -> Kft_absint.Lint.finding list
(** [lint (analyze p)]. *)

(** {2 Reports} *)

val render_human : t -> string
(** Multi-line human dump: liveness table, dependences, issues,
    findings. *)

val render_json : t list -> string
(** The whole analysis as one JSON document:
    [{"tool":"kft-schedflow","version":1,"programs":[...],
    "warnings":N,"infos":N}]. Stable field order, no floats, LF line
    endings — byte-identical across runs and [--jobs] settings. *)
