open Kft_cuda.Ast
module C = Canonical

type options = {
  deep_nest_strategy : [ `Sequential | `Inner_shared ];
  branch_scheme : [ `Per_statement | `Hoisted ];
  tune_blocks : bool;
  eliminate_guards : bool;
      (* splice away generated guards the abstract interpreter proves
         always-true under the block domain (kft_absint); the manual
         scheme keeps them, mirroring hand-written code *)
}

let auto_options =
  { deep_nest_strategy = `Sequential; branch_scheme = `Per_statement; tune_blocks = true;
    eliminate_guards = true }

let manual_options =
  { deep_nest_strategy = `Inner_shared; branch_scheme = `Hoisted; tune_blocks = false;
    eliminate_guards = false }

type stage_kind = Reuse | Produced of int

type stage = {
  s_array : string;
  s_kind : stage_kind;
  s_radius : int;
  s_tile : string;
}

type plan = {
  p_members : C.member list;
  p_stages : stage list;
  p_klo : int;
  p_khi : int;
  p_has_kloop : bool;
  p_shared_bytes : int -> int -> int;
}

(* maximum supported halo radius: wider stencils make the thread-block
   halo "exceedingly large" (Section 7) *)
let radius_cap = 4

(* ------------------------------------------------------------------ *)
(* Small expression helpers                                            *)
(* ------------------------------------------------------------------ *)

(* [e_add e n]: e + n with the literal folded for readability *)
let e_add e n =
  match e with
  | Int_lit x -> Int_lit (x + n)
  | e when n = 0 -> e
  | e when n < 0 -> Binop (Sub, e, Int_lit (-n))
  | e -> Binop (Add, e, Int_lit n)

let e_and a b = Binop (And, a, b)

let conj = function
  | [] -> None
  | c :: rest -> Some (List.fold_left e_and c rest)

(* ------------------------------------------------------------------ *)
(* Offset predicates                                                   *)
(* ------------------------------------------------------------------ *)

let xy_radius offs =
  List.fold_left (fun acc (dx, dy, _) -> max acc (max (abs dx) (abs dy))) 0 offs

let all_dz0 offs = List.for_all (fun (_, _, dz) -> dz = 0) offs

let only_origin offs = List.for_all (fun o -> o = (0, 0, 0)) offs

let only_column offs = List.for_all (fun (dx, dy, _) -> dx = 0 && dy = 0) offs

let dz0_offsets offs = List.filter (fun (_, _, dz) -> dz = 0) offs

(* ------------------------------------------------------------------ *)
(* Feasibility checking + staging plan                                 *)
(* ------------------------------------------------------------------ *)

let touched_union members =
  let seen = Hashtbl.create 16 in
  List.concat_map C.touched_arrays members
  |> List.filter (fun a -> if Hashtbl.mem seen a then false else (Hashtbl.replace seen a (); true))

exception Multi_writer_consumer of string

let check_group (members : C.member list) =
  let ( let* ) r f = Result.bind r f in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let* () =
    if List.exists (fun (m : C.member) -> let _, _, dz = m.m_domain in dz <> 1) members then
      err "a member uses a 3D-mapped launch domain"
    else Ok ()
  in
  let has_kloop = List.exists (fun (m : C.member) -> m.m_kloop <> None) members in
  let aligned (m : C.member) = (not has_kloop) || m.m_kloop <> None in
  let arrays = touched_union members in
  let reads_of_idx i a = C.reads_of (List.nth members i) a in
  let n = List.length members in
  let idxs = List.init n (fun i -> i) in
  let member i = List.nth members i in
  (* validate per-array rules and collect stage candidates *)
  let rec check_arrays acc_stages = function
    | [] -> Ok acc_stages
    | a :: rest ->
        let writers = List.filter (fun i -> C.writes_of (member i) a <> []) idxs in
        let readers = List.filter (fun i -> reads_of_idx i a <> []) idxs in
        let* () =
          (* a member reading and writing the same array must touch only
             its own cell (in-place updates with offsets are racy even in
             the original programs) *)
          let self = List.filter (fun i -> List.mem i writers) readers in
          if List.for_all (fun i -> only_origin (reads_of_idx i a)) self then Ok ()
          else err "member reads and writes %s with a stencil offset" a
        in
        let* () =
          (* RAW pairs *)
          List.fold_left
            (fun acc w ->
              let* () = acc in
              List.fold_left
                (fun acc r ->
                  let* () = acc in
                  if r <= w then Ok ()
                  else
                    let offs = reads_of_idx r a in
                    match (aligned (member w), aligned (member r)) with
                    | true, true ->
                        if not (only_origin (C.writes_of (member w) a)) then
                          err "producer %s writes %s away from its own cell"
                            (member w).C.m_name a
                        else if not (all_dz0 offs) then
                          err
                            "consumer %s reads %s produced in-group with a vertical offset"
                            (member r).C.m_name a
                        else if xy_radius offs > radius_cap then
                          err "consumer halo for %s exceeds the radius cap" a
                        else Ok ()
                    | false, _ ->
                        (* unaligned writer completes at the first plane *)
                        if only_column offs then Ok ()
                        else err "reader of %s crosses blocks over an unaligned writer" a
                    | true, false ->
                        err "unaligned member %s consumes %s from an in-group producer"
                          (member r).C.m_name a)
                (Ok ()) readers)
            (Ok ()) writers
        in
        let* () =
          (* WAR pairs *)
          List.fold_left
            (fun acc r ->
              let* () = acc in
              List.fold_left
                (fun acc w ->
                  let* () = acc in
                  if w <= r || List.mem r writers then Ok ()
                  else
                    let offs = reads_of_idx r a in
                    if aligned (member r) then
                      if only_origin offs then Ok ()
                      else err "reader %s of %s precedes an in-group writer with offsets"
                             (member r).C.m_name a
                    else if only_column offs then Ok ()
                    else err "unaligned reader %s of %s precedes an in-group writer"
                           (member r).C.m_name a)
                (Ok ()) writers)
            (Ok ()) readers
        in
        (* staging decision *)
        let aligned_writers = List.filter (fun i -> aligned (member i)) writers in
        let stage =
          match aligned_writers with
          | [ w ] ->
              let consumers = List.filter (fun r -> r > w && aligned (member r)) readers in
              if consumers = [] then None
              else Some { s_array = a; s_kind = Produced w; s_radius = 0; s_tile = "s_" ^ a }
          | _ :: _ :: _ ->
              (* multiple writers: no coherent tile can be produced. An
                 aligned consumer reading beyond its own cell would see
                 stale values across block boundaries, so such groups are
                 infeasible; origin-only consumers are thread-local and
                 safe without staging. *)
              let unsafe_consumer =
                List.exists
                  (fun r ->
                    aligned (member r)
                    && List.exists (fun w -> w < r && w <> r) aligned_writers
                    && not (only_origin (reads_of_idx r a)))
                  readers
              in
              if unsafe_consumer then
                raise (Multi_writer_consumer a)
              else None
          | [] ->
              if writers <> [] then None
              else
                let dz0_readers =
                  List.filter
                    (fun r -> aligned (member r) && dz0_offsets (reads_of_idx r a) <> [])
                    readers
                in
                if List.length dz0_readers >= 2 then
                  Some { s_array = a; s_kind = Reuse; s_radius = 0; s_tile = "s_" ^ a }
                else None
        in
        check_arrays (match stage with Some s -> s :: acc_stages | None -> acc_stages) rest
  in
  let* stages0 =
    match check_arrays [] arrays with
    | r -> r
    | exception Multi_writer_consumer a ->
        err "array %s has several in-group writers feeding a stencil consumer" a
  in
  let stages0 = List.rev stages0 in
  (* radius fixpoint: a tile must cover every consumer's stencil reach,
     and a consumer that itself recomputes over an extended tile pushes
     its own tile radius outward *)
  let rad : (string, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter (fun s -> Hashtbl.replace rad s.s_array 0) stages0;
  let producer_of = List.filter_map (fun s -> match s.s_kind with Produced w -> Some (s.s_array, w) | Reuse -> None) stages0 in
  let member_tile_radius i =
    List.fold_left
      (fun acc (a, w) -> if w = i then max acc (Hashtbl.find rad a) else acc)
      0 producer_of
  in
  let eligible_reader s r =
    match s.s_kind with
    | Reuse -> aligned (member r) && dz0_offsets (reads_of_idx r s.s_array) <> []
    | Produced w -> r > w && aligned (member r) && reads_of_idx r s.s_array <> []
  in
  let changed = ref true in
  let iters = ref 0 in
  while !changed && !iters < 16 do
    changed := false;
    incr iters;
    List.iter
      (fun s ->
        let req =
          List.fold_left
            (fun acc r ->
              if eligible_reader s r then
                max acc (xy_radius (dz0_offsets (reads_of_idx r s.s_array)) + member_tile_radius r)
              else acc)
            0 idxs
        in
        if req > Hashtbl.find rad s.s_array then begin
          Hashtbl.replace rad s.s_array req;
          changed := true
        end)
      stages0;
    (* unify radii of tiles produced by the same member *)
    List.iter
      (fun (a, w) ->
        let r = member_tile_radius w in
        if Hashtbl.find rad a < r then begin
          Hashtbl.replace rad a r;
          changed := true
        end)
      producer_of
  done;
  (* reuse tiles over the cap are simply dropped (readers stay on global
     memory); produced tiles over the cap make the group infeasible *)
  let rec finalize acc = function
    | [] -> Ok (List.rev acc)
    | s :: rest -> (
        let r = Hashtbl.find rad s.s_array in
        match s.s_kind with
        | Produced _ when r > radius_cap -> err "produced tile for %s needs radius %d" s.s_array r
        | Reuse when r > radius_cap -> finalize acc rest
        | _ -> finalize ({ s with s_radius = r } :: acc) rest)
  in
  let* stages = finalize [] stages0 in
  (* producer strictness: a member that recomputes over an extended tile
     reads its inputs at halo positions too, so the privacy arguments
     behind the WAR / unaligned-writer rules (reads confined to the
     thread's own cell or column) no longer hold for it *)
  let member_final_radius i =
    List.fold_left
      (fun acc s -> match s.s_kind with Produced w when w = i -> max acc s.s_radius | _ -> acc)
      0 stages
  in
  let* () =
    List.fold_left
      (fun acc a ->
        let* () = acc in
        let writers = List.filter (fun i -> C.writes_of (member i) a <> []) idxs in
        let readers = List.filter (fun i -> reads_of_idx i a <> []) idxs in
        List.fold_left
          (fun acc r ->
            let* () = acc in
            if member_final_radius r = 0 then Ok ()
            else if List.mem r writers then
              err "producer %s re-reads %s which it also writes" (member r).C.m_name a
            else if
              List.exists
                (fun w -> r < w || (w < r && not (aligned (member w))))
                writers
            then
              err "producer %s reads %s at halo positions across an in-group writer"
                (member r).C.m_name a
            else if
              (* an earlier aligned writer is only safe when the producer's
                 halo reads are served from that writer's tile; if the
                 array is not staged (e.g. it has several in-group
                 writers), the recompute would read global cells that
                 another block's writer is updating concurrently — a data
                 race the static verifier ([Kft_verify]) detects in the
                 emitted kernel *)
              writers <> []
              && not
                   (List.exists
                      (fun s ->
                        s.s_array = a
                        && match s.s_kind with Produced w -> w < r | Reuse -> false)
                      stages)
            then
              err "producer %s reads unstaged %s written earlier in the group"
                (member r).C.m_name a
            else Ok ())
          (Ok ()) readers)
      (Ok ()) arrays
  in
  let klo, khi =
    List.fold_left
      (fun (lo, hi) (m : C.member) ->
        match m.m_kloop with Some (l, h) -> (min lo l, max hi h) | None -> (lo, hi))
      (max_int, min_int) members
  in
  let klo, khi = if has_kloop then (klo, khi) else (0, 0) in
  let shared_bytes bx by =
    List.fold_left
      (fun acc s -> acc + ((bx + (2 * s.s_radius)) * (by + (2 * s.s_radius)) * 8))
      0 stages
  in
  Ok
    {
      p_members = members;
      p_stages = stages;
      p_klo = klo;
      p_khi = khi;
      p_has_kloop = has_kloop;
      p_shared_bytes = shared_bytes;
    }

(* ------------------------------------------------------------------ *)
(* Code generation                                                     *)
(* ------------------------------------------------------------------ *)

let gi = Var C.gi_var
let gj = Var C.gj_var
let kv = Var C.kv_var

type genctx = {
  plan : plan;
  bx : int;
  by : int;
  group_domain : int * int * int;
}

let aligned_in plan (m : C.member) = (not plan.p_has_kloop) || m.m_kloop <> None

let member_cond g (m : C.member) ~rename_gi ~rename_gj =
  let v_gi = Var rename_gi and v_gj = Var rename_gj in
  let guard =
    match m.m_guard with
    | Some e ->
        let e = if rename_gi <> C.gi_var then map_expr (function Var v when v = C.gi_var -> v_gi | x -> x) e else e in
        let e = if rename_gj <> C.gj_var then map_expr (function Var v when v = C.gj_var -> v_gj | x -> x) e else e in
        [ e ]
    | None -> []
  in
  let dxm, dym, _ = m.m_domain and gdx, gdy, _ = g.group_domain in
  let dom =
    (if m.m_guard = None || dxm < gdx then [ Binop (Lt, v_gi, Int_lit dxm) ] else [])
    @ if m.m_guard = None || dym < gdy then [ Binop (Lt, v_gj, Int_lit dym) ] else []
  in
  let kb =
    if not g.plan.p_has_kloop then []
    else
      match m.m_kloop with
      | Some (lo, hi) ->
          (if lo > g.plan.p_klo then [ Binop (Ge, kv, Int_lit lo) ] else [])
          @ if hi < g.plan.p_khi then [ Binop (Lt, kv, Int_lit hi) ] else []
      | None -> [ Binop (Eq, kv, Int_lit g.plan.p_klo) ]
  in
  conj (guard @ dom @ kb)

(* rewrite a member body's staged reads into tile accesses.
   [tiles] maps array -> (tile name, base_x expr, base_y expr).
   [coord_gi]/[coord_gj] name the coordinate variables the body uses. *)
let rewrite_staged_reads ~tiles ~coord_gi ~coord_gj body =
  let int_vars body =
    fold_stmts
      (fun acc s ->
        match s with
        | Decl (Int, v, _) -> v :: acc
        | For l -> l.index :: acc
        | _ -> acc)
      [] body
  in
  let vars = coord_gi :: coord_gj :: C.kv_var :: int_vars body in
  let rewrite_index a idx =
    match List.assoc_opt a tiles with
    | None -> None
    | Some (tile, base_x, base_y, decl) -> (
        match C.affine_over ~vars idx with
        | None -> None
        | Some (coeffs, const) ->
            let nx, ny, nz =
              match decl.a_dims with
              | [ nx ] -> (nx, 1, 1)
              | [ nx; ny ] -> (nx, ny, 1)
              | [ nx; ny; nz ] -> (nx, ny, nz)
              | _ -> (1, 1, 1)
            in
            let sx = 1 and sy = nx and sz = nx * ny in
            let ok =
              List.for_all
                (fun (v, c) ->
                  (v = coord_gi && c = sx)
                  || (v = coord_gj && c = sy)
                  || (v = C.kv_var && c = sz))
                coeffs
            in
            let has v = List.mem_assoc v coeffs in
            if not (ok && has coord_gi && (ny = 1 || has coord_gj)) then None
            else begin
              (* recover the small stencil offsets via nearest decomposition *)
              let div_nearest a b =
                if b = 0 then 0
                else if a >= 0 then (a + (b / 2)) / b
                else -((-a + (b / 2)) / b)
              in
              let dz = if nz > 1 then div_nearest const sz else 0 in
              let r = const - (dz * sz) in
              let dy = if ny > 1 then div_nearest r sy else 0 in
              let dx = r - (dy * sy) in
              if dz <> 0 then None
              else Some (Index (tile, [ e_add base_y dy; e_add base_x dx ]))
            end)
  in
  map_exprs_in_stmts
    (fun e ->
      map_expr
        (function
          | Index (a, [ idx ]) as orig -> (
              match rewrite_index a idx with Some e' -> e' | None -> orig)
          | e -> e)
        e)
    body

let rewrite_staged_writes ~produced body =
  map_stmts
    (function
      | Assign (Lindex (a, [ _ ]), rhs) when List.mem_assoc a produced ->
          let tile, lx, ly = List.assoc a produced in
          Assign (Lindex (tile, [ Var ly; Var lx ]), rhs)
      | s -> s)
    body

(* tiles visible to member [i] for plain (own-cell) reads *)
let tiles_for_member g decls i =
  List.filter_map
    (fun s ->
      let visible =
        match s.s_kind with Reuse -> true | Produced w -> i > w
      in
      if not visible then None
      else
        let r = s.s_radius in
        Some
          ( s.s_array,
            ( s.s_tile,
              e_add (Var "tx") r,
              e_add (Var "ty") r,
              List.assoc s.s_array decls ) ))
    g.plan.p_stages

let array_decls members =
  List.concat_map (fun (m : C.member) -> m.m_arrays) members
  |> List.sort_uniq compare

(* cooperative load of a reuse tile, one plane per iteration.

   For [Produced] tiles the load is additionally restricted to cells
   where the producer's recompute guard does {e not} hold: cells inside
   the producer's domain are overwritten by the cooperative recompute
   before any consumer reads them, so preloading them would be a dead
   read — and, worse, a cross-block data race, because the adjacent
   block writes the very same global cells back while this block is
   still preloading its halo (caught by the static race detector of
   [Kft_verify]). Cells outside the producer's guard keep the original
   global data, matching the unfused semantics. *)
let reuse_load g decls s =
  let r = s.s_radius in
  let w = g.bx + (2 * r) and h = g.by + (2 * r) in
  let decl = List.assoc s.s_array decls in
  let nx, ny, nz =
    match decl.a_dims with
    | [ nx ] -> (nx, 1, 1)
    | [ nx; ny ] -> (nx, ny, 1)
    | [ nx; ny; nz ] -> (nx, ny, nz)
    | _ -> (1, 1, 1)
  in
  let c = "c__" ^ s.s_array in
  let lx = "lx__" ^ s.s_array and ly = "ly__" ^ s.s_array in
  let gx = "gx__" ^ s.s_array and gy = "gy__" ^ s.s_array in
  let guard =
    [
      Binop (Ge, Var gx, Int_lit 0);
      Binop (Lt, Var gx, Int_lit nx);
    ]
    @ (if ny > 1 then [ Binop (Ge, Var gy, Int_lit 0); Binop (Lt, Var gy, Int_lit ny) ] else [])
    @
    if g.plan.p_has_kloop && nz > 1 then
      [ Binop (Ge, kv, Int_lit 0); Binop (Lt, kv, Int_lit nz) ]
    else []
  in
  let z = if nz > 1 then Some (if g.plan.p_has_kloop then kv else Int_lit 0) else None in
  let src = C.linear_index decl ~x:(Var gx) ~y:(Var gy) ~z in
  let assign =
    Assign (Lindex (s.s_tile, [ Var ly; Var lx ]), Index (s.s_array, [ src ]))
  in
  let hit =
    match s.s_kind with
    | Reuse -> [ assign ]
    | Produced w ->
        let m = List.find (fun (m : C.member) -> m.m_index = w) g.plan.p_members in
        let pc =
          match member_cond g m ~rename_gi:gx ~rename_gj:gy with
          | Some pc -> pc
          | None ->
              (* a producer guard always materializes (domain bounds at
                 minimum); defend against a future relaxation *)
              Int_lit 1
        in
        [ If (pc, [], [ assign ]) ]
  in
  For
    {
      index = c;
      lo = Var "tid";
      hi = Int_lit (w * h);
      step = g.bx * g.by;
      body =
        [
          Decl (Int, lx, Some (Binop (Mod, Var c, Int_lit w)));
          Decl (Int, ly, Some (Binop (Div, Var c, Int_lit w)));
          Decl
            ( Int,
              gx,
              Some (Binop (Sub, Binop (Add, Binop (Mul, Builtin (Block_idx X), Int_lit g.bx), Var lx), Int_lit r)) );
          Decl
            ( Int,
              gy,
              Some (Binop (Sub, Binop (Add, Binop (Mul, Builtin (Block_idx Y), Int_lit g.by), Var ly), Int_lit r)) );
          If (Option.get (conj guard), hit, []);
        ];
    }

(* producer member emitted as a cooperative extended-tile recompute *)
let producer_block g decls (m : C.member) produced_stages =
  let i = m.m_index in
  let rw = List.fold_left (fun acc s -> max acc s.s_radius) 0 produced_stages in
  let w = g.bx + (2 * rw) and h = g.by + (2 * rw) in
  let sfx = Printf.sprintf "__p%d" (i + 1) in
  let c = "c" ^ sfx and lx = "lx" ^ sfx and ly = "ly" ^ sfx in
  let gxv = "gx" ^ sfx and gyv = "gy" ^ sfx in
  (* body with coordinates remapped to the tile sweep *)
  let body = rename_var ~old:C.gi_var ~fresh:gxv m.m_body in
  let body = rename_var ~old:C.gj_var ~fresh:gyv body in
  (* reads from earlier tiles, at tile coordinates *)
  let tiles =
    List.filter_map
      (fun s ->
        let visible = match s.s_kind with Reuse -> true | Produced w' -> i > w' || List.exists (fun ps -> ps.s_array = s.s_array) produced_stages in
        if not visible then None
        else
          Some
            ( s.s_array,
              ( s.s_tile,
                e_add (Var lx) (s.s_radius - rw),
                e_add (Var ly) (s.s_radius - rw),
                List.assoc s.s_array decls ) ))
      g.plan.p_stages
  in
  (* own produced arrays: writes -> tile; own reads of them are origin-only
     and must keep reading global (old values), so exclude them from the
     read-tile map *)
  let produced_names = List.map (fun s -> s.s_array) produced_stages in
  let read_tiles = List.filter (fun (a, _) -> not (List.mem a produced_names)) tiles in
  let body = rewrite_staged_reads ~tiles:read_tiles ~coord_gi:gxv ~coord_gj:gyv body in
  let body =
    rewrite_staged_writes
      ~produced:(List.map (fun s -> (s.s_array, (s.s_tile, lx, ly))) produced_stages)
      body
  in
  let cond =
    let base = member_cond g m ~rename_gi:gxv ~rename_gj:gyv in
    let nonneg = [ Binop (Ge, Var gxv, Int_lit 0); Binop (Ge, Var gyv, Int_lit 0) ] in
    conj (nonneg @ Option.to_list base)
  in
  let tile_loop =
    For
      {
        index = c;
        lo = Var "tid";
        hi = Int_lit (w * h);
        step = g.bx * g.by;
        body =
          [
            Decl (Int, lx, Some (Binop (Mod, Var c, Int_lit w)));
            Decl (Int, ly, Some (Binop (Div, Var c, Int_lit w)));
            Decl
              ( Int,
                gxv,
                Some (Binop (Sub, Binop (Add, Binop (Mul, Builtin (Block_idx X), Int_lit g.bx), Var lx), Int_lit rw)) );
            Decl
              ( Int,
                gyv,
                Some (Binop (Sub, Binop (Add, Binop (Mul, Builtin (Block_idx Y), Int_lit g.by), Var ly), Int_lit rw)) );
            If (Option.get cond, body, []);
          ];
      }
  in
  (* own-cell writeback to global memory *)
  let writebacks =
    List.map
      (fun s ->
        let decl = List.assoc s.s_array decls in
        let nz = match decl.a_dims with [ _; _; nz ] -> nz | _ -> 1 in
        let z =
          if nz > 1 then Some (if g.plan.p_has_kloop then kv else Int_lit 0) else None
        in
        let dst = C.linear_index decl ~x:gi ~y:gj ~z in
        Assign
          ( Lindex (s.s_array, [ dst ]),
            Index (s.s_tile, [ e_add (Var "ty") s.s_radius; e_add (Var "tx") s.s_radius ]) ))
      produced_stages
  in
  let wb_cond = member_cond g m ~rename_gi:C.gi_var ~rename_gj:C.gj_var in
  let wb =
    match wb_cond with
    | Some c -> [ If (c, writebacks, []) ]
    | None -> writebacks
  in
  [ tile_loop; Syncthreads ] @ wb

let build device options ~name ~block:(bx, by) plan =
  let shared_bytes = plan.p_shared_bytes bx by in
  if shared_bytes > device.Kft_device.Device.shared_mem_per_block then
    Error
      (Printf.sprintf "staging needs %d bytes of shared memory per block (limit %d)" shared_bytes
         device.Kft_device.Device.shared_mem_per_block)
  else begin
    let members = plan.p_members in
    let decls = array_decls members in
    let group_domain =
      List.fold_left
        (fun (dx, dy, dz) (m : C.member) ->
          let mx, my, mz = m.m_domain in
          (max dx mx, max dy my, max dz mz))
        (1, 1, 1) members
    in
    let g = { plan; bx; by; group_domain } in
    let staged = plan.p_stages <> [] in
    let head =
      [
        Decl (Int, "tx", Some (Builtin (Thread_idx X)));
        Decl (Int, "ty", Some (Builtin (Thread_idx Y)));
      ]
      @ (if staged then [ Decl (Int, "tid", Some (Binop (Add, Binop (Mul, Var "ty", Int_lit bx), Var "tx"))) ] else [])
      @ [
          Decl (Int, C.gi_var, Some (Binop (Add, Binop (Mul, Builtin (Block_idx X), Int_lit bx), Var "tx")));
          Decl (Int, C.gj_var, Some (Binop (Add, Binop (Mul, Builtin (Block_idx Y), Int_lit by), Var "ty")));
        ]
      @ List.map
          (fun s ->
            Shared_decl (Double, s.s_tile, [ by + (2 * s.s_radius); bx + (2 * s.s_radius) ]))
          plan.p_stages
    in
    let plane =
      (* Reuse tiles are preloaded with the array's current values (the
         staging load itself); Produced tiles are preloaded only outside
         the producer's guard, so those cells read as the original global
         data while guarded cells come exclusively from the cooperative
         recompute (see [reuse_load] for the race this avoids) *)
      let loads = List.map (reuse_load g decls) plan.p_stages in
      let loads = if loads <> [] then loads @ [ Syncthreads ] else [] in
      let member_stmts =
        List.concat_map
          (fun (m : C.member) ->
            let produced =
              List.filter
                (fun s -> match s.s_kind with Produced w -> w = m.m_index | Reuse -> false)
                plan.p_stages
            in
            if produced <> [] then producer_block g decls m produced
            else begin
              let tiles = if aligned_in plan m then tiles_for_member g decls m.m_index else [] in
              let body = rewrite_staged_reads ~tiles ~coord_gi:C.gi_var ~coord_gj:C.gj_var m.m_body in
              let cond = member_cond g m ~rename_gi:C.gi_var ~rename_gj:C.gj_var in
              match (cond, options.branch_scheme) with
              | None, _ -> body
              | Some c, `Hoisted -> [ If (c, body, []) ]
              | Some c, `Per_statement -> List.map (fun s -> If (c, [ s ], [])) body
            end)
          members
      in
      let trailing = if staged && plan.p_has_kloop then [ Syncthreads ] else [] in
      loads @ member_stmts @ trailing
    in
    let body =
      if plan.p_has_kloop then
        head
        @ [ For { index = C.kv_var; lo = Int_lit plan.p_klo; hi = Int_lit plan.p_khi; step = 1; body = plane } ]
      else head @ plane
    in
    let written = List.concat_map (fun (m : C.member) -> List.map fst m.m_writes) members in
    let params =
      List.map
        (fun (a, _) ->
          Array_param
            { name = a; elem_ty = Double; quals = (if List.mem a written then [] else [ Const ]) })
        decls
      @ List.concat_map
          (fun (m : C.member) ->
            List.map (fun (p, _) -> Scalar_param { name = p; ty = Double }) m.m_double_args)
          members
    in
    let args =
      List.map (fun (a, _) -> Arg_array a) decls
      @ List.concat_map
          (fun (m : C.member) -> List.map (fun (_, v) -> Arg_double v) m.m_double_args)
          members
    in
    let kernel = { k_name = name; k_params = params; k_body = body } in
    let launch =
      { l_kernel = name; l_domain = group_domain; l_block = (bx, by, 1); l_args = args }
    in
    (* proof-driven guard elimination: conditions implied by the block
       domain (e.g. gi < dx when the grid tiles dx exactly) are decided
       by the abstract interpreter and spliced out; the result is
       translation-validated downstream like any other fused kernel *)
    let kernel, eliminated =
      if options.eliminate_guards then
        Kft_absint.Absint.simplify_kernel ~block:launch.l_block
          ~grid:(grid_of_launch launch) ~int_params:[] kernel
      else (kernel, 0)
    in
    Ok (kernel, launch, eliminated)
  end
