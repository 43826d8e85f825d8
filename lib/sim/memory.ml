open Kft_cuda.Ast

module A1 = Bigarray.Array1

(* Off-heap storage: the GC never scans a Bigarray's payload, so
   multi-hundred-KB grids cost nothing per minor collection, and
   [A1.blit] over float64 is a straight memcpy. float64 Bigarray cells
   and [float array] cells are the same IEEE-754 doubles, so swapping
   the representation cannot perturb a single bit of any result. *)
type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t

let alloc_buf n : buf = A1.create Bigarray.Float64 Bigarray.C_layout n

type entry = { data : buf; edims : int list }

(* One contiguous arena per memory; every entry is a zero-copy
   [A1.sub] view into it, laid out in sorted name order (the same
   packing order snapshots have always used). [directory] rows are
   (name, dims, offset); a row's length is the product of its dims. *)
type t = {
  arena : buf;  (** may be larger than [total] when recycled from the pool *)
  total : int;  (** cells actually used, starting at offset 0 *)
  directory : (string * int list * int) array;
  tbl : (string, entry) Hashtbl.t;
  mutable released : bool;
}

exception Unknown_array of string

(* ------------------------------------------------------------------ *)
(* Arena pool                                                          *)
(* ------------------------------------------------------------------ *)

module Pool = struct
  type stats = {
    requests : int;  (** arena acquisitions: create + restore *)
    hits : int;  (** served by recycling a released arena *)
    misses : int;  (** served by a fresh allocation *)
    cells_requested : int;  (** total cells across all requests *)
    high_water : int;  (** peak cells simultaneously checked out *)
  }

  let m = Mutex.create ()

  (* free arenas sorted by capacity ascending, so acquisition is
     smallest-fit: the first arena large enough wins, keeping big
     arenas available for big requests *)
  let free : buf list ref = ref []

  (* bound the arenas we hoard: a long bench run cycles through many
     differently-sized programs, and beyond this depth recycling stops
     paying for the retained address space. A dropped arena is freed by
     the Bigarray finalizer like any other. *)
  let max_free = 32

  let requests = ref 0
  let hits = ref 0
  let misses = ref 0
  let cells_requested = ref 0
  let live = ref 0
  let high_water = ref 0

  let stats () =
    Mutex.protect m (fun () ->
        {
          requests = !requests;
          hits = !hits;
          misses = !misses;
          cells_requested = !cells_requested;
          high_water = !high_water;
        })

  let reset () =
    Mutex.protect m (fun () ->
        free := [];
        requests := 0;
        hits := 0;
        misses := 0;
        cells_requested := 0;
        live := 0;
        high_water := 0)

  let acquire n =
    Mutex.protect m (fun () ->
        incr requests;
        cells_requested := !cells_requested + n;
        let rec take acc = function
          | [] -> None
          | a :: rest when A1.dim a >= n ->
              free := List.rev_append acc rest;
              Some a
          | a :: rest -> take (a :: acc) rest
        in
        let arena =
          match take [] !free with
          | Some a ->
              incr hits;
              a
          | None ->
              incr misses;
              alloc_buf n
        in
        live := !live + A1.dim arena;
        if !live > !high_water then high_water := !live;
        arena)

  let release_arena a =
    Mutex.protect m (fun () ->
        live := !live - A1.dim a;
        if List.length !free < max_free then begin
          let d = A1.dim a in
          let rec insert = function
            | [] -> [ a ]
            | b :: rest when A1.dim b >= d -> a :: b :: rest
            | b :: rest -> b :: insert rest
          in
          free := insert !free
        end)
end

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* Build the view table over [arena] from a directory whose offsets are
   a packed prefix of length [total]. The directory is immutable and is
   shared freely between memories and snapshots. *)
let dims_cells dims = List.fold_left ( * ) 1 dims

let of_arena arena total directory =
  let n = Array.length directory in
  let tbl = Hashtbl.create (max 32 n) in
  Array.iter
    (fun (name, edims, off) ->
      Hashtbl.replace tbl name { data = A1.sub arena off (dims_cells edims); edims })
    directory;
  { arena; total; directory; tbl; released = false }

let create decls =
  let seen = Hashtbl.create 32 in
  List.iter
    (fun d ->
      if Hashtbl.mem seen d.a_name then
        invalid_arg ("Memory.create: duplicate array " ^ d.a_name);
      if d.a_elem_ty <> Double then
        invalid_arg ("Memory.create: only double arrays are supported: " ^ d.a_name);
      Hashtbl.replace seen d.a_name ())
    decls;
  let sorted = List.sort (fun a b -> compare a.a_name b.a_name) decls in
  let off = ref 0 in
  let directory =
    Array.of_list
      (List.map
         (fun d ->
           let row = (d.a_name, d.a_dims, !off) in
           off := !off + array_cells d;
           row)
         sorted)
  in
  let total = !off in
  let arena = Pool.acquire total in
  (* [A1.create] does not zero memory (and a recycled arena holds the
     previous tenant's data): restore the zero-initialized contract *)
  A1.fill (A1.sub arena 0 total) 0.0;
  of_arena arena total directory

(* splitmix64-style hash, kept in int range *)
let mix h =
  let h = h * 0x9E3779B1 land max_int in
  let h = h lxor (h lsr 16) in
  let h = h * 0x85EBCA77 land max_int in
  h lxor (h lsr 13)

let init_seeded t ~seed =
  Array.iter
    (fun (name, _, _) ->
      match Hashtbl.find_opt t.tbl name with
      | None -> ()
      | Some e ->
          let name_hash = Hashtbl.hash name in
          for i = 0 to A1.dim e.data - 1 do
            let h = mix (seed + (name_hash * 31) + (i * 2654435761)) in
            (* values in (-1, 1), never exactly 0 to catch masking bugs *)
            A1.unsafe_set e.data i
              ((float_of_int (h land 0xFFFFF) +. 1.0)
              /. 1048577.0
              *. (if h land 0x100000 = 0 then 1.0 else -1.0))
          done)
    t.directory

let find t name =
  if t.released then invalid_arg ("Memory.find: use after release: " ^ name);
  match Hashtbl.find_opt t.tbl name with
  | Some e -> e
  | None -> raise (Unknown_array name)

let get t name = (find t name).data

let get_array t name =
  let b = (find t name).data in
  Array.init (A1.dim b) (fun i -> A1.unsafe_get b i)

let dims t name = (find t name).edims

let mem t name = Hashtbl.mem t.tbl name

let names t = Array.to_list (Array.map (fun (n, _, _) -> n) t.directory)

let release t =
  if t.released then invalid_arg "Memory.release: memory already released";
  t.released <- true;
  Hashtbl.reset t.tbl;
  Pool.release_arena t.arena

(* Snapshots reuse the arena layout directly: entries are already
   packed in sorted name order, so capture is one [A1.blit] of the used
   prefix into a fresh exact-size buffer (not pooled — snapshots live
   indefinitely inside Metadata.Sim_cache, and parking them in the pool
   would leak them out of cache entries). Restore is the mirror blit
   into a pooled arena. *)
type snapshot = {
  s_directory : (string * int list * int) array;
  s_total : int;
  s_buf : buf;
}

let snapshot t =
  if t.released then invalid_arg "Memory.snapshot: use after release";
  let buf = alloc_buf t.total in
  A1.blit (A1.sub t.arena 0 t.total) buf;
  { s_directory = t.directory; s_total = t.total; s_buf = buf }

let restore s =
  let arena = Pool.acquire s.s_total in
  A1.blit s.s_buf (A1.sub arena 0 s.s_total);
  of_arena arena s.s_total s.s_directory

let max_abs_diff a b =
  List.sort_uniq compare (names a @ names b)
  |> List.map (fun n ->
         if not (mem a n && mem b n) then (n, infinity)
         else
           let da = get a n and db = get b n in
           if A1.dim da <> A1.dim db then (n, infinity)
           else begin
             let m = ref 0.0 in
             for i = 0 to A1.dim da - 1 do
               let d = Float.abs (A1.unsafe_get da i -. A1.unsafe_get db i) in
               if d > !m then m := d
             done;
             (n, !m)
           end)

let equal_within ~tol a b = List.for_all (fun (_, d) -> d <= tol) (max_abs_diff a b)
