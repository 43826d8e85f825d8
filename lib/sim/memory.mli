(** Device global memory for the GPU simulator.

    Arrays are flat float64 {!Bigarray.Array1} views into one
    contiguous off-heap arena per memory, addressed by the linearized
    index the kernels compute; dimensions are kept for reporting and
    halo checks. Only double-precision arrays are supported — the
    evaluation of the paper is entirely double precision
    (Section 6.1.2).

    The off-heap representation buys three things with zero behavioural
    change (float64 Bigarray cells are the same IEEE-754 doubles as
    [float array] cells): the GC never scans grid payloads,
    {!snapshot} / {!restore} are single [Array1.blit]s
    (memcpy), and arenas are recycled through {!Pool} across the GGA's
    thousands of fitness simulations. *)

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Backing store of one array: a zero-copy sub-view of the memory's
    arena. Element [i] is read as [b.{i}] (or [Array1.unsafe_get] on
    proved paths). *)

type t

exception Unknown_array of string
(** Raised by {!get} / {!dims} for an array name this memory does not
    hold. Carries the offending name; the interpreter re-wraps it in
    [Interp.Sim_error] together with the launching kernel. *)

val create : Kft_cuda.Ast.array_decl list -> t
(** Allocate every array, zero-initialized, in one pooled arena packed
    in sorted name order. Raises [Invalid_argument] on duplicate names
    or non-double element types. *)

val init_seeded : t -> seed:int -> unit
(** Fill every array with a deterministic pseudo-random pattern derived
    from [seed] and the array name, so that identical programs started
    from the same seed are bit-comparable. *)

val get : t -> string -> buf
(** The backing store of an array — an aliasing view, not a copy.
    Raises {!Unknown_array}. *)

val get_array : t -> string -> float array
(** A heap copy of an array's contents, for callers that want plain
    [float array] access (tests, reporting). Raises {!Unknown_array}. *)

val dims : t -> string -> int list
(** Raises {!Unknown_array}. *)

val mem : t -> string -> bool

val names : t -> string list

val release : t -> unit
(** Return the memory's arena to {!Pool} for recycling. The memory must
    not be used afterwards ({!get} / {!snapshot} raise
    [Invalid_argument]); releasing twice raises [Invalid_argument].
    Releasing is optional — an unreleased memory is reclaimed by the GC
    like before, its arena simply bypasses the pool. *)

type snapshot
(** An immutable-by-convention capture of a memory: the used arena
    prefix (entries are packed in sorted name order) blitted into a
    fresh exact-size buffer, plus the shared (name, dims, offset)
    directory. Do not mutate a snapshot's interior. *)

val snapshot : t -> snapshot
(** Capture the current contents: one [Array1.blit], no serialization;
    cheap enough to take per cached simulation run. The snapshot's
    buffer is deliberately not pooled — snapshots live indefinitely
    inside the profile cache. *)

val restore : snapshot -> t
(** A fresh memory with the captured contents (one pooled acquisition
    plus one blit). Restoring twice yields independent memories
    ([restore s != restore s] arrays). *)

val max_abs_diff : t -> t -> (string * float) list
(** For every array name present in {e either} memory, the maximum
    absolute elementwise difference. An array missing on one side — or
    present with a different length — is reported as [infinity] rather
    than silently dropped. Sorted by name. *)

val equal_within : tol:float -> t -> t -> bool
(** True when every array of either memory agrees within [tol] (so a
    one-sided array makes this false). *)

(** Arena recycling across simulations. Global, mutex-guarded;
    smallest-fit over a bounded free list of released arenas. *)
module Pool : sig
  type stats = {
    requests : int;  (** arena acquisitions: create + restore *)
    hits : int;  (** served by recycling a released arena *)
    misses : int;  (** served by a fresh allocation *)
    cells_requested : int;  (** total cells across all requests *)
    high_water : int;  (** peak cells simultaneously checked out *)
  }

  val stats : unit -> stats

  val reset : unit -> unit
  (** Drop retained arenas and zero the counters (tests, bench). *)
end
