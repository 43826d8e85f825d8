(* Forward abstract interpretation over the CUDA subset.

   Domain: reduced product of saturating integer intervals and symbolic
   affine forms sum(c_i * s_i) + c over a small symbol universe — the
   six launch builtins (threadIdx/blockIdx per dimension) plus one fresh
   symbol per loop induction variable.  blockDim, gridDim and integer
   kernel arguments are concrete at analysis time, so the affine forms
   of the usual stencil index expressions (gi = blockIdx.x * blockDim.x
   + threadIdx.x, idx = (k*ny + j)*nx + i) stay exact end-to-end: the
   interval of an affine form is the termwise sum over symbol ranges,
   and conditional narrowing on an affine variable knows precisely what
   fraction of threads survives (mixed-radix completeness check below).

   The same walk doubles as a guard simplifier: in [simplify] mode an
   [If] whose condition is decided is spliced out.  Everything is a
   sound over-approximation: joins at control merges, havoc for scalars
   mutated in loop bodies, a single abstract pass per loop body whose
   entry state subsumes every concrete iteration. *)

open Kft_cuda.Ast
module Loc = Kft_cuda.Loc
module Senv = Map.Make (String)
module Imap = Map.Make (Int)

(* ------------------------------------------------------------------ *)
(* saturating intervals                                                *)
(* ------------------------------------------------------------------ *)

type itv = { lo : int; hi : int }

let big = 1 lsl 44
let clamp v = if v > big then big else if v < -big then -big else v
let sat_add a b = clamp (a + b)

let sat_mul a b =
  if a = 0 || b = 0 then 0
  else if abs a > big / abs b then if (a > 0) = (b > 0) then big else -big
  else clamp (a * b)

let itop = { lo = -big; hi = big }
let iconst n = { lo = clamp n; hi = clamp n }
let is_const i = i.lo = i.hi
let itv_width i = sat_add (sat_add i.hi (-i.lo)) 1
let pp_itv i = Printf.sprintf "[%d,%d]" i.lo i.hi
let ijoin a b = { lo = min a.lo b.lo; hi = max a.hi b.hi }

let imeet a b =
  let lo = max a.lo b.lo and hi = min a.hi b.hi in
  if lo > hi then None else Some { lo; hi }

let iadd a b = { lo = sat_add a.lo b.lo; hi = sat_add a.hi b.hi }
let isub a b = { lo = sat_add a.lo (-b.hi); hi = sat_add a.hi (-b.lo) }
let ineg a = { lo = -a.hi; hi = -a.lo }

let imul a b =
  let c1 = sat_mul a.lo b.lo
  and c2 = sat_mul a.lo b.hi
  and c3 = sat_mul a.hi b.lo
  and c4 = sat_mul a.hi b.hi in
  { lo = min (min c1 c2) (min c3 c4); hi = max (max c1 c2) (max c3 c4) }

(* OCaml division truncates toward zero; for a fixed nonzero divisor it
   is monotone in the dividend, so corners suffice.  A divisor interval
   that contains zero (or is unbounded) yields top. *)
let idiv a b =
  if is_const b && b.lo <> 0 then begin
    let d = b.lo in
    let x = a.lo / d and y = a.hi / d in
    { lo = min x y; hi = max x y }
  end
  else if b.lo >= 1 || b.hi <= -1 then begin
    let c1 = a.lo / b.lo and c2 = a.lo / b.hi and c3 = a.hi / b.lo and c4 = a.hi / b.hi in
    { lo = min (min c1 c2) (min c3 c4); hi = max (max c1 c2) (max c3 c4) }
  end
  else itop

(* a mod d in the subset follows OCaml semantics: result has the sign
   of a and magnitude < |d|.  Sound for any positive divisor range. *)
let imod a b =
  if b.lo >= 1 then begin
    let m = b.hi - 1 in
    let lo = max (min a.lo 0) (-m) and hi = min (max a.hi 0) m in
    { lo; hi }
  end
  else itop

let imin a b = { lo = min a.lo b.lo; hi = min a.hi b.hi }
let imax a b = { lo = max a.lo b.lo; hi = max a.hi b.hi }

let iabs a =
  if a.lo >= 0 then a
  else if a.hi <= 0 then ineg a
  else { lo = 0; hi = max (-a.lo) a.hi }

(* ------------------------------------------------------------------ *)
(* affine forms                                                        *)
(* ------------------------------------------------------------------ *)

type aff = { coef : int Imap.t; const : int }

let aconst n = { coef = Imap.empty; const = n }
let asym s = { coef = Imap.singleton s 1; const = 0 }

let aadd a b =
  {
    coef =
      Imap.union (fun _ x y -> if x + y = 0 then None else Some (x + y)) a.coef b.coef;
    const = a.const + b.const;
  }

let ascale k a =
  if k = 0 then aconst 0
  else { coef = Imap.map (fun c -> c * k) a.coef; const = a.const * k }

let aneg a = ascale (-1) a
let asub a b = aadd a (aneg b)

let adiv_exact a d =
  if d > 0 && a.const mod d = 0 && Imap.for_all (fun _ c -> c mod d = 0) a.coef then
    Some { coef = Imap.map (fun c -> c / d) a.coef; const = a.const / d }
  else None

let equal_aff a b = a.const = b.const && Imap.equal ( = ) a.coef b.coef

(* the exported view of an affine form *)
type form = { f_terms : (int * int) list; f_const : int }

let form_of_aff a = { f_terms = Imap.bindings a.coef; f_const = a.const }

(* ------------------------------------------------------------------ *)
(* analysis context                                                    *)
(* ------------------------------------------------------------------ *)

type status = Proved | Oob | Unknown
type space = Global | Shared

type sym_kind =
  | Thread of int
  | Block of int
  | Trip of bool
  | Quot of form * int
  | Rem of form * int

type sym = { sy_kind : sym_kind; sy_range : itv }
type cond = Holds of form | Fails of form list

type access = {
  acc_array : string;
  acc_space : space;
  acc_write : bool;
  acc_loc : Loc.pos;
  acc_status : status;
  acc_range : itv;
  acc_extent : int;
  acc_form : form option;
  acc_guards : cond list;
  acc_interval : int;
  acc_bytes : float;
  acc_exact : bool;
}

type guard = {
  gu_loc : Loc.pos;
  gu_cond : string;
  gu_decided : bool option;
  gu_thread_dep : bool;
  gu_frac : float;
}

type footprint = { fp_reads : itv option; fp_writes : itv option }

type result = {
  res_kernel : string;
  res_accesses : access list;
  res_guards : guard list;
  res_proved : int;
  res_unknown : int;
  res_oob : int;
  res_all_proved : bool;
  res_est_bytes : float;
  res_est_exact : bool;
  res_footprints : (string * footprint) list;
  res_syms : sym array;
}

type sym_info = { rng : itv; s_uni : bool; kind : sym_kind }

type ctx = {
  syms : (int, sym_info) Hashtbl.t;
  mutable next_sym : int;
  global_cells : (string * int) list;
  shared : (string, int list) Hashtbl.t;
  mutable record : bool;  (* off while deciding conditions *)
  mutable accesses : access list;  (* reversed *)
  mutable guards : guard list;  (* reversed *)
  mutable eliminated : int;
  mutable returns : bool;
  mutable cloc : Loc.pos;
  simplify : bool;
  threads : float;
  divmods : ((int * int) list * int * int * bool, int) Hashtbl.t;
      (* (form terms, form const, divisor, is_div) -> derived symbol *)
  mutable conds : cond list;  (* enclosing guard constraints *)
  mutable seg : int;  (* current barrier segment (raw id) *)
  mutable next_seg : int;
  seg_parent : (int, int) Hashtbl.t;  (* union-find over segments *)
  seg_hits : (int, int) Hashtbl.t;  (* accesses recorded per raw segment *)
}

let sym_tx = 0
let sym_ty = 1
let sym_tz = 2

let fresh_sym ctx info =
  let s = ctx.next_sym in
  ctx.next_sym <- s + 1;
  Hashtbl.replace ctx.syms s info;
  s

let sym_info ctx s =
  match Hashtbl.find_opt ctx.syms s with
  | Some i -> i
  | None -> { rng = itop; s_uni = false; kind = Trip false }

(* ------------------------------------------------------------------ *)
(* abstract values: reduced product                                    *)
(* ------------------------------------------------------------------ *)

type aval = { aff : aff option; itv : itv; uni : bool }
(* [uni]: the value is uniformly distributed over the integers of [itv]
   across the threads/iterations it ranges over — licenses exact
   narrowing fractions for traffic prediction (never affects
   soundness). *)

let top_val = { aff = None; itv = itop; uni = false }
let const_val n = { aff = Some (aconst (clamp n)); itv = iconst n; uni = true }

let range_of_aff ctx a =
  Imap.fold
    (fun s c acc ->
      let r = (sym_info ctx s).rng in
      iadd acc (imul (iconst c) r))
    a.coef (iconst a.const)

(* Mixed-radix completeness: sorted by |coef| ascending, the smallest
   coefficient is 1 and each next equals the product of the widths so
   far (gi = blockIdx.x*blockDim.x + threadIdx.x, tid = ty*bx + tx...).
   Then the affine form takes every integer of its range exactly once
   per sweep: uniform. *)
let covers ctx a =
  let terms = Imap.bindings a.coef in
  match terms with
  | [] -> true
  | _ ->
      List.for_all (fun (s, _) -> (sym_info ctx s).s_uni) terms
      && begin
           let sorted =
             List.sort (fun (_, c1) (_, c2) -> compare (abs c1) (abs c2)) terms
           in
           let rec go acc = function
             | [] -> true
             | (s, c) :: rest ->
                 abs c = acc && go (acc * itv_width (sym_info ctx s).rng) rest
           in
           go 1 sorted
         end

(* c = w*(c/w) + c%w for every integer c, so a linearized tile subscript
   k*w*q + k*r over the quotient and remainder symbols of one [c] folds
   back into k*c: the cooperative load [s[c / w][c % w]] becomes affine
   in the loop counter again *)
let aff_of_form f =
  { coef = List.fold_left (fun m (s, c) -> Imap.add s c m) Imap.empty f.f_terms; const = f.f_const }

let fold_divmod ctx a =
  Imap.fold
    (fun s k acc ->
      match (sym_info ctx s).kind with
      | Rem (c, w) -> (
          match Hashtbl.find_opt ctx.divmods (c.f_terms, c.f_const, w, true) with
          | Some q
            when Imap.find_opt s acc.coef = Some k && Imap.find_opt q acc.coef = Some (k * w) ->
              let parts = aadd (ascale k (asym s)) (ascale (k * w) (asym q)) in
              aadd (asub acc parts) (ascale k (aff_of_form c))
          | _ -> acc)
      | _ -> acc)
    a.coef a

let mk ctx aff itv =
  match aff with
  | None -> { aff = None; itv; uni = is_const itv }
  | Some a ->
      let r = range_of_aff ctx a in
      let itv = match imeet itv r with Some m -> m | None -> itv in
      { aff; itv; uni = covers ctx a }

let sym_val ctx s = mk ctx (Some (asym s)) itop

let join_val ctx a b =
  match (a.aff, b.aff) with
  | Some x, Some y when equal_aff x y -> mk ctx (Some x) (ijoin a.itv b.itv)
  | _ -> mk ctx None (ijoin a.itv b.itv)

let join_env ctx a b =
  Senv.merge
    (fun _ x y ->
      match (x, y) with Some x, Some y -> Some (join_val ctx x y) | _ -> None)
    a b

(* ------------------------------------------------------------------ *)
(* expression evaluation                                               *)
(* ------------------------------------------------------------------ *)

type weight = { trips : float; frac : float; w_exact : bool }

let bool_itv lo hi = { aff = None; itv = { lo; hi }; uni = false }

let builtin_val ctx ~block:(bx, by, bz) ~grid:(gx, gy, gz) = function
  | Thread_idx X -> sym_val ctx sym_tx
  | Thread_idx Y -> sym_val ctx sym_ty
  | Thread_idx Z -> sym_val ctx sym_tz
  | Block_idx X -> sym_val ctx 3
  | Block_idx Y -> sym_val ctx 4
  | Block_idx Z -> sym_val ctx 5
  | Block_dim X -> const_val bx
  | Block_dim Y -> const_val by
  | Block_dim Z -> const_val bz
  | Grid_dim X -> const_val gx
  | Grid_dim Y -> const_val gy
  | Grid_dim Z -> const_val gz

(* sign of a difference decides a comparison *)
let cmp_val op d =
  match op with
  | Lt -> if d.hi < 0 then Some true else if d.lo >= 0 then Some false else None
  | Le -> if d.hi <= 0 then Some true else if d.lo > 0 then Some false else None
  | Gt -> if d.lo > 0 then Some true else if d.hi <= 0 then Some false else None
  | Ge -> if d.lo >= 0 then Some true else if d.hi < 0 then Some false else None
  | Eq ->
      if d.lo = 0 && d.hi = 0 then Some true
      else if d.hi < 0 || d.lo > 0 then Some false
      else None
  | Ne ->
      if d.hi < 0 || d.lo > 0 then Some true
      else if d.lo = 0 && d.hi = 0 then Some false
      else None
  | _ -> None

type env = aval Senv.t

type state = {
  c : ctx;
  block : int * int * int;
  grid : int * int * int;
}

let rec eval st (env : env) ~w e : aval =
  let ctx = st.c in
  match e with
  | Int_lit n -> const_val n
  | Double_lit _ -> top_val
  | Var v -> ( match Senv.find_opt v env with Some a -> a | None -> top_val)
  | Builtin b -> builtin_val ctx ~block:st.block ~grid:st.grid b
  | Binop (op, a, b) -> eval_binop st env ~w op a b
  | Unop (Neg, a) ->
      let v = eval st env ~w a in
      mk ctx (Option.map aneg v.aff) (ineg v.itv)
  | Unop (Not, a) ->
      let v = eval st env ~w a in
      (* !x: 1 when x = 0 *)
      if v.itv.lo > 0 || v.itv.hi < 0 then const_val 0
      else if v.itv.lo = 0 && v.itv.hi = 0 then const_val 1
      else bool_itv 0 1
  | Index (a, idxs) ->
      let vals = List.map (eval st env ~w) idxs in
      if ctx.record then record_access st ~w ~write:false a vals;
      top_val
  | Call ("min", [ a; b ]) ->
      let x = eval st env ~w a and y = eval st env ~w b in
      mk ctx None (imin x.itv y.itv)
  | Call ("max", [ a; b ]) ->
      let x = eval st env ~w a and y = eval st env ~w b in
      mk ctx None (imax x.itv y.itv)
  | Call ("abs", [ a ]) ->
      let x = eval st env ~w a in
      mk ctx None (iabs x.itv)
  | Call (_, args) ->
      List.iter (fun a -> ignore (eval st env ~w a)) args;
      top_val
  | Ternary (c, a, b) -> (
      match decide st env c with
      | Some true -> eval st env ~w a
      | Some false -> eval st env ~w b
      | None -> join_val st.c (eval st env ~w a) (eval st env ~w b))

and eval_binop st env ~w op a b =
  let ctx = st.c in
  let x = eval st env ~w a and y = eval st env ~w b in
  match op with
  | Add ->
      let aff = match (x.aff, y.aff) with Some p, Some q -> Some (aadd p q) | _ -> None in
      mk ctx aff (iadd x.itv y.itv)
  | Sub ->
      let aff = match (x.aff, y.aff) with Some p, Some q -> Some (asub p q) | _ -> None in
      mk ctx aff (isub x.itv y.itv)
  | Mul ->
      let aff =
        if is_const x.itv then Option.map (ascale x.itv.lo) y.aff
        else if is_const y.itv then Option.map (ascale y.itv.lo) x.aff
        else None
      in
      mk ctx aff (imul x.itv y.itv)
  | Div -> (
      let aff =
        if is_const y.itv && y.itv.lo > 0 then
          Option.bind x.aff (fun p -> adiv_exact p y.itv.lo)
        else None
      in
      match aff with
      | None -> divmod ctx ~div:true x y (idiv x.itv y.itv)
      | Some _ -> mk ctx aff (idiv x.itv y.itv))
  | Mod -> divmod ctx ~div:false x y (imod x.itv y.itv)
  | (Lt | Le | Gt | Ge | Eq | Ne) as op -> (
      match cmp_val op (isub x.itv y.itv) with
      | Some true -> const_val 1
      | Some false -> const_val 0
      | None -> bool_itv 0 1)
  | And ->
      let t v = v.itv.lo > 0 || v.itv.hi < 0 (* definitely nonzero *)
      and f v = v.itv.lo = 0 && v.itv.hi = 0 in
      if f x || f y then const_val 0 else if t x && t y then const_val 1 else bool_itv 0 1
  | Or ->
      let t v = v.itv.lo > 0 || v.itv.hi < 0 and f v = v.itv.lo = 0 && v.itv.hi = 0 in
      if t x || t y then const_val 1 else if f x && f y then const_val 0 else bool_itv 0 1

(* [c / w] or [c % w] of a nonnegative affine [c] by a constant [w].
   When c = lo + w*hi with lo always in [0, w), the quotient is [hi] and
   the remainder [lo], exactly.  Otherwise it is a derived symbol,
   memoized on (c, w) so that both subscripts of one cooperative tile
   load name the same quotient and remainder (see [fold_divmod]); its
   range is the join over every evaluation.  Guard elimination keeps the
   plain interval, so its decisions do not move. *)
and divmod ctx ~div x y itv =
  match x.aff with
  | Some c
    when (not ctx.simplify) && is_const y.itv && y.itv.lo > 0 && x.itv.lo >= 0
         && not (is_const itv) -> (
      let w = y.itv.lo in
      let hi_terms, lo_terms = Imap.partition (fun _ k -> k mod w = 0) c.coef in
      let lo = { coef = lo_terms; const = ((c.const mod w) + w) mod w } in
      let hi = { coef = Imap.map (fun k -> k / w) hi_terms; const = (c.const - lo.const) / w } in
      let r = range_of_aff ctx lo in
      if r.lo >= 0 && r.hi < w then mk ctx (Some (if div then hi else lo)) itv
      else begin
        let f = form_of_aff c in
        let key = (f.f_terms, f.f_const, w, div) in
        let s =
          match Hashtbl.find_opt ctx.divmods key with
          | Some s ->
              let info = sym_info ctx s in
              Hashtbl.replace ctx.syms s { info with rng = ijoin info.rng itv };
              s
          | None ->
              let s =
                fresh_sym ctx
                  { rng = itv; s_uni = false; kind = (if div then Quot (f, w) else Rem (f, w)) }
              in
              Hashtbl.replace ctx.divmods key s;
              s
        in
        mk ctx (Some (asym s)) itv
      end)
  | _ -> mk ctx None itv

(* Guard constraints of a condition as affine facts [f >= 0], for the
   race proof (none in guard elimination).  [cond_atoms] is the
   conjunction of comparisons when every one is affine; [holds] is what
   the then-branch may assume, [fails] the else-branch.  Atoms outside
   the affine fragment are dropped, which only weakens a guard. *)
and cond_atoms st env c : aff list option =
  let w1 = { trips = 1.0; frac = 1.0; w_exact = false } in
  match c with
  | Binop (And, a, b) -> (
      match (cond_atoms st env a, cond_atoms st env b) with
      | Some x, Some y -> Some (x @ y)
      | _ -> None)
  | Binop (((Lt | Le | Gt | Ge | Eq) as op), a, b) -> (
      match ((eval st env ~w:w1 a).aff, (eval st env ~w:w1 b).aff) with
      | Some p, Some q ->
          let d = asub p q and one = aconst 1 in
          Some
            (match op with
            | Lt -> [ asub (aneg d) one ]
            | Le -> [ aneg d ]
            | Gt -> [ asub d one ]
            | Ge -> [ d ]
            | _ -> [ d; aneg d ])
      | _ -> None)
  | _ -> None

and holds st env c = guard_facts st (fun () -> holds_on st env c)
and fails st env c = guard_facts st (fun () -> fails_on st env c)

and guard_facts st f =
  let ctx = st.c in
  if ctx.simplify then []
  else begin
    let saved = ctx.record in
    ctx.record <- false;
    let r = f () in
    ctx.record <- saved;
    r
  end

and holds_on st env c : cond list =
  match c with
  | Binop (And, a, b) -> holds_on st env a @ holds_on st env b
  | Unop (Not, a) -> fails_on st env a
  | _ -> (
      match cond_atoms st env c with
      | Some fs -> List.map (fun f -> Holds (form_of_aff f)) fs
      | None -> [])

and fails_on st env c : cond list =
  match c with
  | Unop (Not, a) -> holds_on st env a
  | _ -> (
      match cond_atoms st env c with
      | Some fs -> [ Fails (List.map form_of_aff fs) ]
      | None -> [])

(* Three-valued truth of a condition; never records accesses. *)
and decide st env c : bool option =
  let ctx = st.c in
  let saved = ctx.record in
  ctx.record <- false;
  let r = decide_on st env c in
  ctx.record <- saved;
  r

and decide_on st env c =
  let w1 = { trips = 1.0; frac = 1.0; w_exact = false } in
  match c with
  | Int_lit n -> Some (n <> 0)
  | Binop (And, a, b) -> (
      match (decide_on st env a, decide_on st env b) with
      | Some false, _ | _, Some false -> Some false
      | Some true, Some true -> Some true
      | _ -> None)
  | Binop (Or, a, b) -> (
      match (decide_on st env a, decide_on st env b) with
      | Some true, _ | _, Some true -> Some true
      | Some false, Some false -> Some false
      | _ -> None)
  | Unop (Not, a) -> Option.map not (decide_on st env a)
  | Binop (((Lt | Le | Gt | Ge | Eq | Ne) as op), a, b) ->
      let x = eval st env ~w:w1 a and y = eval st env ~w:w1 b in
      let d =
        match (x.aff, y.aff) with
        | Some p, Some q ->
            (* difference through the affine form: correlated terms
               cancel, e.g. gi < gridDim.x*blockDim.x is decided even
               though both sides mention blockIdx.x *)
            (mk st.c (Some (asub p q)) (isub x.itv y.itv)).itv
        | _ -> isub x.itv y.itv
      in
      cmp_val op d
  | e ->
      let v = eval st env ~w:w1 e in
      if v.itv.lo > 0 || v.itv.hi < 0 then Some true
      else if v.itv.lo = 0 && v.itv.hi = 0 then Some false
      else None

(* Condition refinement for the then-branch: narrow interval bounds of
   plain variables compared against an evaluable expression.  Returns
   [None] when the condition is infeasible, else the refined
   environment, the estimated fraction of threads satisfying it, and
   whether that fraction is exact. *)
and refine st env c : (env * float * bool) option =
  match c with
  | Binop (And, a, b) ->
      Option.bind (refine st env a) (fun (env, f1, e1) ->
          Option.map (fun (env, f2, e2) -> (env, f1 *. f2, e1 && e2)) (refine st env b))
  | atom -> (
      match decide st env atom with
      | Some true -> Some (env, 1.0, true)
      | Some false -> None
      | None -> narrow_atom st env atom)

and narrow_atom st env atom =
  let ctx = st.c in
  let saved = ctx.record in
  ctx.record <- false;
  let w1 = { trips = 1.0; frac = 1.0; w_exact = false } in
  let r =
    let narrow v op rhs =
      match Senv.find_opt v env with
      | None -> Some (env, 1.0, false)
      | Some cur ->
          let rv = eval st env ~w:w1 rhs in
          let lo, hi = (cur.itv.lo, cur.itv.hi) in
          let lo', hi' =
            match op with
            | Lt -> (lo, min hi (sat_add rv.itv.hi (-1)))
            | Le -> (lo, min hi rv.itv.hi)
            | Gt -> (max lo (sat_add rv.itv.lo 1), hi)
            | Ge -> (max lo rv.itv.lo, hi)
            | Eq -> (max lo rv.itv.lo, min hi rv.itv.hi)
            | _ -> (lo, hi)
          in
          if lo' > hi' then None
          else begin
            let frac =
              float_of_int (hi' - lo' + 1) /. float_of_int (itv_width cur.itv)
            in
            let exact =
              cur.uni && is_const rv.itv
              && (match op with Ne -> false | _ -> true)
            in
            let refined = { cur with itv = { lo = lo'; hi = hi' } } in
            Some (Senv.add v refined env, frac, exact)
          end
    in
    let flip = function
      | Lt -> Gt
      | Le -> Ge
      | Gt -> Lt
      | Ge -> Le
      | op -> op
    in
    match atom with
    | Binop (((Lt | Le | Gt | Ge | Eq) as op), Var v, rhs) -> narrow v op rhs
    | Binop (((Lt | Le | Gt | Ge | Eq) as op), lhs, Var v) -> narrow v (flip op) lhs
    | _ -> Some (env, 1.0, false)
  in
  ctx.record <- saved;
  r

(* ------------------------------------------------------------------ *)
(* access recording                                                    *)
(* ------------------------------------------------------------------ *)

and record_access st ~w ~write a (vals : aval list) =
  let ctx = st.c in
  match Hashtbl.find_opt ctx.shared a with
  | Some dims ->
      (* shared array: per-dimension bounds against the declaration *)
      if List.length dims <> List.length vals then
        push_access ctx ~a ~space:Shared ~write ~status:Unknown ~range:itop
          ~extent:(List.fold_left ( * ) 1 dims)
          ~form:None ~bytes:0.0 ~exact:false
      else begin
        let statuses =
          List.map2
            (fun d (v : aval) ->
              if v.itv.lo >= 0 && v.itv.hi < d then Proved
              else if v.itv.hi < 0 || v.itv.lo >= d then Oob
              else Unknown)
            dims vals
        in
        let status =
          if List.exists (( = ) Oob) statuses then Oob
          else if List.exists (( = ) Unknown) statuses then Unknown
          else Proved
        in
        (* linearize for the bank-conflict stride and the range *)
        let lin =
          List.fold_left2
            (fun acc d (v : aval) ->
              let scaled_itv = iadd (imul acc.itv (iconst d)) v.itv in
              let aff =
                match (acc.aff, v.aff) with
                | Some p, Some q -> Some (aadd (ascale d p) q)
                | _ -> None
              in
              mk ctx aff scaled_itv)
            (const_val 0) dims vals
        in
        push_access ctx ~a ~space:Shared ~write ~status ~range:lin.itv
          ~extent:(List.fold_left ( * ) 1 dims)
          ~form:lin.aff ~bytes:0.0 ~exact:false
      end
  | None -> (
      match (List.assoc_opt a ctx.global_cells, vals) with
      | Some cells, [ v ] ->
          let status =
            if v.itv.lo >= 0 && v.itv.hi < cells then Proved
            else if v.itv.hi < 0 || v.itv.lo >= cells then Oob
            else Unknown
          in
          let bytes = 8.0 *. ctx.threads *. w.frac *. w.trips in
          push_access ctx ~a ~space:Global ~write ~status ~range:v.itv ~extent:cells
            ~form:v.aff ~bytes ~exact:w.w_exact
      | Some cells, _ ->
          (* global arrays are linearized in the subset: anything else
             is outside the domain *)
          push_access ctx ~a ~space:Global ~write ~status:Unknown ~range:itop
            ~extent:cells ~form:None ~bytes:0.0 ~exact:false
      | None, _ ->
          (* unknown array (not a parameter of this launch): imprecise *)
          push_access ctx ~a ~space:Global ~write ~status:Unknown ~range:itop ~extent:0
            ~form:None ~bytes:0.0 ~exact:false)

and push_access ctx ~a ~space ~write ~status ~range ~extent ~form ~bytes ~exact =
  let hits = Option.value (Hashtbl.find_opt ctx.seg_hits ctx.seg) ~default:0 in
  Hashtbl.replace ctx.seg_hits ctx.seg (hits + 1);
  ctx.accesses <-
    {
      acc_array = a;
      acc_space = space;
      acc_write = write;
      acc_loc = ctx.cloc;
      acc_status = status;
      acc_range = range;
      acc_extent = extent;
      acc_form = Option.map (fun f -> form_of_aff (fold_divmod ctx f)) form;
      acc_guards = ctx.conds;
      acc_interval = ctx.seg;
      acc_bytes = bytes;
      acc_exact = exact;
    }
    :: ctx.accesses

(* ------------------------------------------------------------------ *)
(* statements                                                          *)
(* ------------------------------------------------------------------ *)

let assigned_scalars stmts =
  fold_stmts
    (fun acc s ->
      match s with
      | Assign (Lvar v, _) | Decl (_, v, _) -> v :: acc
      | For l -> l.index :: acc
      | _ -> acc)
    [] stmts

(* does the condition depend on the thread id (directly or through the
   environment)? drives the divergence lint, not soundness *)
let thread_dep env c =
  fold_expr
    (fun acc e ->
      acc
      ||
      match e with
      | Builtin (Thread_idx _) -> true
      | Var v -> (
          match Senv.find_opt v env with
          | Some { aff = Some p; _ } ->
              Imap.exists (fun s _ -> s = sym_tx || s = sym_ty || s = sym_tz) p.coef
          | _ -> false)
      | _ -> false)
    false c

(* Barrier segments: a [__syncthreads()] opens a fresh segment; control
   merges and barrier loops union the segments that one dynamic barrier
   interval can span (both arms' ends; a loop's tail with its head). *)
let rec seg_find ctx s =
  match Hashtbl.find_opt ctx.seg_parent s with
  | Some p when p <> s ->
      let r = seg_find ctx p in
      Hashtbl.replace ctx.seg_parent s r;
      r
  | _ -> s

let seg_union ctx a b =
  let a = seg_find ctx a and b = seg_find ctx b in
  if a <> b then Hashtbl.replace ctx.seg_parent (max a b) (min a b)

let seg_hits ctx s =
  let r = seg_find ctx s in
  Hashtbl.fold (fun s' n acc -> if seg_find ctx s' = r then acc + n else acc) ctx.seg_hits 0

let with_conds ctx extra f =
  let saved = ctx.conds in
  ctx.conds <- extra @ saved;
  let r = f () in
  ctx.conds <- saved;
  r

let rec exec st env ~w stmts : env * stmt list =
  let ctx = st.c in
  let env, rev =
    List.fold_left
      (fun (env, acc) s ->
        let saved = ctx.cloc in
        let l = Loc.find s in
        if not (Loc.is_none l) then ctx.cloc <- l;
        let env, out = exec_stmt st env ~w s in
        ctx.cloc <- saved;
        (env, List.rev_append out acc))
      (env, []) stmts
  in
  (env, List.rev rev)

and exec_stmt st env ~w s : env * stmt list =
  let ctx = st.c in
  match s with
  | Decl (_, v, init) ->
      let value = match init with Some e -> eval st env ~w e | None -> top_val in
      (Senv.add v value env, [ s ])
  | Shared_decl (_, name, dims) ->
      Hashtbl.replace ctx.shared name dims;
      (env, [ s ])
  | Assign (Lvar v, e) -> (Senv.add v (eval st env ~w e) env, [ s ])
  | Assign (Lindex (a, idxs), e) ->
      ignore (eval st env ~w e);
      let vals = List.map (eval st env ~w) idxs in
      if ctx.record then record_access st ~w ~write:true a vals;
      (env, [ s ])
  | Syncthreads ->
      ctx.seg <- ctx.next_seg;
      ctx.next_seg <- ctx.next_seg + 1;
      (env, [ s ])
  | Return ->
      ctx.returns <- true;
      (env, [ s ])
  | If (c, t, e) -> exec_if st env ~w s c t e
  | For l -> exec_for st env ~w s l

and exec_if st env ~w s c t e =
  let ctx = st.c in
  let d = decide st env c in
  (* accesses inside the condition itself (rare) are recorded once *)
  if ctx.record then ignore (eval st env ~w c);
  let tdep = thread_dep env c in
  let s0 = ctx.seg in
  let push_guard frac =
    ctx.guards <-
      {
        gu_loc = ctx.cloc;
        gu_cond = Kft_cuda.Pp.expr c;
        gu_decided = d;
        gu_thread_dep = tdep;
        gu_frac = frac;
      }
      :: ctx.guards
  in
  match d with
  | Some true ->
      push_guard 1.0;
      let env', t' = exec st env ~w t in
      if st.c.simplify then begin
        ctx.eliminated <- ctx.eliminated + 1;
        (env', t')
      end
      else (env', [ s ])
  | Some false ->
      push_guard 0.0;
      let env', e' = exec st env ~w e in
      if st.c.simplify then begin
        ctx.eliminated <- ctx.eliminated + 1;
        (env', e')
      end
      else (env', [ s ])
  | None ->
      let rt = refine st env c in
      let frac_t, exact_t = match rt with None -> (0.0, true) | Some (_, f, ex) -> (f, ex) in
      push_guard frac_t;
      let env_t, t', feasible_t =
        match rt with
        | None -> (env, t, false) (* then-branch unreachable *)
        | Some (env_c, _, _) ->
            let env1, t' =
              with_conds ctx (holds st env c) (fun () ->
                  exec st env_c
                    ~w:{ w with frac = w.frac *. frac_t; w_exact = w.w_exact && exact_t }
                    t)
            in
            (env1, t', true)
      in
      let s_t = ctx.seg in
      ctx.seg <- s0;
      let frac_e = Float.max 0.0 (1.0 -. frac_t) in
      let env_e, e' =
        if e = [] then (env, [])
        else
          with_conds ctx (fails st env c) (fun () ->
              exec st env
                ~w:{ w with frac = w.frac *. frac_e; w_exact = w.w_exact && exact_t }
                e)
      in
      seg_union ctx s_t ctx.seg;
      ctx.seg <- s_t;
      let env' = if feasible_t then join_env st.c env_t env_e else env_e in
      (env', if st.c.simplify then [ If (c, t', e') ] else [ s ])

and exec_for st env ~w s (l : for_loop) =
  let ctx = st.c in
  let lov = eval st env ~w l.lo and hiv = eval st env ~w l.hi in
  if lov.itv.lo >= hiv.itv.hi then (env, [ s ]) (* proved zero-trip *)
  else begin
    let step = max 1 l.step in
    let trips, texact =
      if is_const lov.itv && is_const hiv.itv then
        (float_of_int (max 0 ((hiv.itv.lo - lov.itv.lo + step - 1) / step)), true)
      else
        (float_of_int (max 1 ((hiv.itv.hi - lov.itv.lo + step - 1) / step)), false)
    in
    let iv_rng = { lo = lov.itv.lo; hi = sat_add hiv.itv.hi (-1) } in
    (* the induction variable is lo + step*m over a fresh trip counter m;
       guard elimination keeps the plain interval symbol.  A body that
       rebinds the index or a variable of the bound leaves no affine
       form (the interval stays as it was) *)
    let mutated = assigned_scalars l.body in
    let steady =
      (not (List.mem l.index mutated))
      && not (fold_expr (fun acc e -> acc || match e with Var v -> List.mem v mutated | _ -> false) false l.hi)
    in
    let sym, iv =
      match lov.aff with
      | Some lo when not ctx.simplify ->
          let tmax = max 1 ((sat_add hiv.itv.hi (-lov.itv.lo) + step - 1) / step) in
          let m =
            fresh_sym ctx { rng = { lo = 0; hi = tmax - 1 }; s_uni = step = 1; kind = Trip false }
          in
          (m, aadd lo (ascale step (asym m)))
      | _ ->
          let m = fresh_sym ctx { rng = iv_rng; s_uni = step = 1; kind = Trip false } in
          (m, asym m)
    in
    let bound =
      match hiv.aff with
      | Some hi when steady && not ctx.simplify ->
          [ Holds (form_of_aff (asub (asub hi (aconst 1)) iv)) ]
      | _ -> []
    in
    let saved_iv = Senv.find_opt l.index env in
    (* scalars mutated in the body may carry any value at body entry *)
    let env0 =
      List.fold_left
        (fun e v -> if Senv.mem v e then Senv.add v top_val e else e)
        env mutated
    in
    let iv = if steady || ctx.simplify then Some iv else None in
    let env0 = Senv.add l.index { aff = iv; itv = iv_rng; uni = step = 1 } env0 in
    let s_entry = ctx.seg in
    let env1, body' =
      with_conds ctx bound (fun () ->
          exec st env0
            ~w:{ trips = w.trips *. trips; frac = w.frac; w_exact = w.w_exact && texact }
            l.body)
    in
    let s_tail = ctx.seg in
    if seg_find ctx s_tail <> seg_find ctx s_entry then begin
      (* a barrier loop: one dynamic interval spans the tail of iteration
         m and the head of iteration m+1.  When the tail touches nothing,
         every interval sees a single iteration and m is fixed in it *)
      if seg_hits ctx s_tail = 0 then
        Hashtbl.replace ctx.syms sym { (sym_info ctx sym) with kind = Trip true };
      seg_union ctx s_tail s_entry
    end;
    let out = join_env st.c env env1 in
    let out =
      match saved_iv with
      | Some v -> Senv.add l.index v out
      | None -> Senv.remove l.index out
    in
    (out, if st.c.simplify then [ For { l with body = body' } ] else [ s ])
  end

(* ------------------------------------------------------------------ *)
(* drivers                                                             *)
(* ------------------------------------------------------------------ *)

let run ~simplify ~block ~grid ~int_params ~global_cells (k : kernel) =
  let bx, by, bz = block and gx, gy, gz = grid in
  let ctx =
    {
      syms = Hashtbl.create 16;
      next_sym = 6;
      global_cells;
      shared = Hashtbl.create 4;
      record = not simplify;
      accesses = [];
      guards = [];
      eliminated = 0;
      returns = false;
      cloc = Loc.none;
      simplify;
      threads = float_of_int (bx * by * bz) *. float_of_int (gx * gy * gz);
      divmods = Hashtbl.create 8;
      conds = [];
      seg = 0;
      next_seg = 1;
      seg_parent = Hashtbl.create 8;
      seg_hits = Hashtbl.create 8;
    }
  in
  List.iteri
    (fun i extent ->
      Hashtbl.replace ctx.syms i
        {
          rng = { lo = 0; hi = extent - 1 };
          s_uni = true;
          kind = (if i < 3 then Thread i else Block (i - 3));
        })
    [ bx; by; bz; gx; gy; gz ];
  (* shared declarations are in scope for the whole kernel *)
  fold_stmts
    (fun () s ->
      match s with Shared_decl (_, n, d) -> Hashtbl.replace ctx.shared n d | _ -> ())
    () k.k_body;
  let st = { c = ctx; block; grid } in
  let env0 =
    List.fold_left (fun e (n, v) -> Senv.add n (const_val v) e) Senv.empty int_params
  in
  let _, body' = exec st env0 ~w:{ trips = 1.0; frac = 1.0; w_exact = true } k.k_body in
  (ctx, body')

let result_of (ctx : ctx) k_name =
  let accesses =
    List.rev_map (fun a -> { a with acc_interval = seg_find ctx a.acc_interval }) ctx.accesses
  in
  let count st = List.length (List.filter (fun a -> a.acc_status = st) accesses) in
  let globals = List.filter (fun a -> a.acc_space = Global) accesses in
  let est_bytes = List.fold_left (fun s a -> s +. a.acc_bytes) 0.0 globals in
  let est_exact =
    (not ctx.returns) && List.for_all (fun a -> a.acc_exact) globals
  in
  let fp_tbl = Hashtbl.create 8 in
  List.iter
    (fun a ->
      let cur =
        match Hashtbl.find_opt fp_tbl a.acc_array with
        | Some f -> f
        | None -> { fp_reads = None; fp_writes = None }
      in
      let upd side = match side with None -> Some a.acc_range | Some i -> Some (ijoin i a.acc_range) in
      let cur =
        if a.acc_write then { cur with fp_writes = upd cur.fp_writes }
        else { cur with fp_reads = upd cur.fp_reads }
      in
      Hashtbl.replace fp_tbl a.acc_array cur)
    globals;
  let footprints =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) fp_tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let oob = count Oob and unknown = count Unknown in
  {
    res_kernel = k_name;
    res_accesses = accesses;
    res_guards = List.rev ctx.guards;
    res_proved = count Proved;
    res_unknown = unknown;
    res_oob = oob;
    res_all_proved = oob = 0 && unknown = 0;
    res_est_bytes = est_bytes;
    res_est_exact = est_exact;
    res_footprints = footprints;
    res_syms =
      Array.init ctx.next_sym (fun s ->
          let i = sym_info ctx s in
          { sy_kind = i.kind; sy_range = i.rng });
  }

let form_range syms f =
  List.fold_left
    (fun acc (s, c) ->
      let r = if s < Array.length syms then syms.(s).sy_range else itop in
      iadd acc (imul (iconst c) r))
    (iconst f.f_const) f.f_terms

let tx_stride syms a =
  match a.acc_form with
  | None -> None
  | Some f ->
      if
        List.exists
          (fun (s, _) ->
            s < Array.length syms
            && match syms.(s).sy_kind with Quot _ | Rem _ -> true | _ -> false)
          f.f_terms
      then None
      else Some (Option.value (List.assoc_opt sym_tx f.f_terms) ~default:0)

let analyze_kernel ~block ~grid ~int_params ~global_cells k =
  let ctx, _ = run ~simplify:false ~block ~grid ~int_params ~global_cells k in
  result_of ctx k.k_name

let analyze_launch (p : program) (l : launch) =
  match find_kernel p l.l_kernel with
  | exception Not_found -> None
  | k -> (
      match bind_args k l.l_args with
      | exception Invalid_argument _ -> None
      | bound ->
          let int_params =
            List.filter_map
              (fun (n, a) -> match a with Arg_int v -> Some (n, v) | _ -> None)
              bound
          in
          let global_cells =
            List.filter_map
              (fun (n, a) ->
                match a with
                | Arg_array host -> (
                    match find_array p host with
                    | exception Not_found -> None
                    | arr -> Some (n, array_cells arr))
                | _ -> None)
              bound
          in
          Some
            (analyze_kernel ~block:l.l_block ~grid:(grid_of_launch l) ~int_params
               ~global_cells k))

let simplify_kernel ~block ~grid ~int_params k =
  let ctx, body' = run ~simplify:true ~block ~grid ~int_params ~global_cells:[] k in
  ({ k with k_body = body' }, ctx.eliminated)

(* Install this analyzer as the vector backend's bounds prover: a launch
   whose every global access is proved in bounds may run with unchecked
   array accesses. Registered by side effect at link time because the
   sim library cannot depend on the analyzer (the analyzer's clients
   already depend on the sim library). Linking kft_absint is enough to
   activate it — the analyzer library is a dependency of every
   executable and of the framework, so all production entry points run
   with the prover installed. *)
let () =
  Kft_sim.Vector.set_prover (fun prog l ->
      match analyze_launch prog l with
      | Some r -> r.res_all_proved
      | None -> false)
