(* Whole-grid vectorized execution backend.

   The lockstep interpreter ([Interp]) simulates a block by running each
   statement across every thread before moving to the next statement,
   with per-thread register files ([int array]/[float array] indexed by
   the thread id) and closures taking the thread id as argument. That
   machinery exists to make barriers, early exit and shared-memory
   hazard tracking expressible — but most production stencil kernels
   need none of it: a guard, a couple of index computations, a loop of
   global reads and one global write.

   When a launch is proved to be in that fragment (see [prepare]), this
   backend compiles it once per chunk into plain [unit -> _] closures
   over a single scalar "lane" — six mutable thread/block coordinates
   plus two flat slot-indexed register arrays — and runs the whole grid
   as flat loops: for each block, for each warp, for each thread, run
   the statement list. No per-thread closure arguments, no epoch or
   liveness bookkeeping, no double guard evaluation; global accesses use
   [Array.unsafe_get/set] when the [kft_absint] prover (installed via
   [set_prover]) has proved every access in bounds.

   Bit-identity with the [affine:false] reference interpreter is a hard
   contract (asserted by differential tests and the bench sweeps), and
   rests on the eligibility proof:

   - Per-thread scalar state is thread-private in both backends, and
     each thread executes the same statement sequence in the same order,
     so fusing the statement loop into the thread loop only reorders
     work across threads *between different statements*.
   - That reordering touches memory only through global arrays, and the
     single-writer-statement rule (every written array has all its
     accesses inside one top-level statement) makes cross-statement
     array traffic commute. Within one statement both backends run the
     threads in ascending order.
   - Definite assignment (every scalar is written before it is read on
     all paths) makes the initial register-file contents unobservable,
     so reusing one lane for the whole grid cannot leak state between
     threads.
   - Float expressions are compiled with the same association and the
     same operation set as the reference, so rounding is identical, and
     every stats addend is an exact integer (see [Simc.diff_stats]), so
     per-warp/per-block accumulation order cannot change totals.
   - Top-level guards are pure integer conditions, so evaluating each
     once per thread (counting warp divergence inline) is
     indistinguishable from the reference's separate divergence pass. *)

open Kft_cuda.Ast
module Engine = Kft_engine.Engine
module S = Simc
module A1 = Bigarray.Array1

(* Installed by kft_absint at link time (the sim library cannot depend
   on the analyzer without a cycle): returns true when every global
   access of the launch is proved in bounds, licensing unchecked
   accesses. Defaults to "nothing proved", which only costs bounds
   checks, never soundness. *)
let prover : (program -> launch -> bool) ref = ref (fun _ _ -> false)
let set_prover f = prover := f

(* ------------------------------------------------------------------ *)
(* Eligibility                                                         *)
(* ------------------------------------------------------------------ *)

exception Ineligible

type prep = {
  p_kernel : kernel;
  p_bound : (string * arg) list;
  p_body : stmt list;  (* blockDim/gridDim substituted, affine-rewritten *)
  p_table : (string, S.binding) Hashtbl.t;
  p_n_int : int;
  p_n_float : int;
}

(* every scalar read is dominated by a write on all paths; assignments
   inside a loop body are not assumed to have happened after it (the
   body may run zero times), and branch assignments only count when both
   arms perform them — conservative, but exact for the affine-rewritten
   stencil kernels this backend targets *)
let check_def_assign params body =
  let module SS = Set.Make (String) in
  let check_expr defined e =
    fold_expr
      (fun () e ->
        match e with
        | Var v when not (SS.mem v defined) -> raise Ineligible
        | _ -> ())
      () e
  in
  let check_exprs defined es = List.iter (check_expr defined) es in
  let rec go defined stmts =
    List.fold_left
      (fun defined s ->
        match s with
        | Decl (_, _, None) -> defined
        | Decl (_, v, Some e) | Assign (Lvar v, e) ->
            check_expr defined e;
            SS.add v defined
        | Assign (Lindex (_, idxs), e) ->
            check_exprs defined idxs;
            check_expr defined e;
            defined
        | If (c, t, e) ->
            check_expr defined c;
            SS.inter (go defined t) (go defined e)
        | For l ->
            check_expr defined l.lo;
            check_expr defined l.hi;
            let d = SS.add l.index defined in
            ignore (go d l.body);
            d
        | Shared_decl _ | Syncthreads | Return -> raise Ineligible)
      defined stmts
  in
  ignore (go (SS.of_list params) body)

let prepare prog (l : launch) : prep option =
  match
    let kernel = find_kernel prog l.l_kernel in
    let bound = bind_args kernel l.l_args in
    let bx, by, bz = l.l_block in
    let gx, gy, gz = grid_of_launch l in
    if bx * by * bz <= 0 then raise Ineligible;
    let body =
      map_exprs_in_stmts
        (function
          | Builtin (Block_dim X) -> Int_lit bx
          | Builtin (Block_dim Y) -> Int_lit by
          | Builtin (Block_dim Z) -> Int_lit bz
          | Builtin (Grid_dim X) -> Int_lit gx
          | Builtin (Grid_dim Y) -> Int_lit gy
          | Builtin (Grid_dim Z) -> Int_lit gz
          | e -> e)
        kernel.k_body
    in
    (* barriers, early exit and shared memory need the lockstep machine *)
    if
      fold_stmts
        (fun acc s ->
          acc || match s with Syncthreads | Return | Shared_decl _ -> true | _ -> false)
        false body
    then raise Ineligible;
    let body = Affine.rewrite_stmts body in
    let table, n_int, n_float, shared =
      S.collect_scalar_slots kernel.k_name body kernel.k_params
    in
    if shared <> [] then raise Ineligible;
    List.iter
      (fun (p, a) ->
        let b =
          match a with
          | Arg_array _ -> S.Global Memory.empty_buf  (* placeholder, rebound per run *)
          | Arg_int i -> S.Const_int i
          | Arg_double f -> S.Const_float f
        in
        Hashtbl.replace table p b)
      bound;
    let lookup v =
      match Hashtbl.find_opt table v with Some b -> b | None -> raise Ineligible
    in
    (* top-level guards drive the warp-divergence accounting with a
       single inline evaluation per thread: they must be pure integer
       conditions for that to be unobservable *)
    List.iter
      (function
        | If (c, _, _) when not (S.pure_int_cond lookup c) -> raise Ineligible
        | _ -> ())
      body;
    let host_of p =
      match List.assoc_opt p bound with Some (Arg_array h) -> Some h | _ -> None
    in
    (* every indexed name must be a bound array parameter (aliasing is
       tracked by host array, not parameter name) *)
    List.iter
      (fun a -> if host_of a = None then raise Ineligible)
      (arrays_read body @ arrays_written body);
    check_def_assign (List.map fst bound) body;
    (* single-writer-statement rule: a host array that is written
       anywhere must have ALL its accesses (reads and writes, through
       any alias) inside one top-level statement, so that fusing the
       statement loop into the thread loop cannot reorder a read of one
       statement against a write of another *)
    let hosts names = List.filter_map host_of names |> List.sort_uniq compare in
    let per_stmt =
      List.map
        (fun s -> (hosts (arrays_read [ s ] @ arrays_written [ s ]), hosts (arrays_written [ s ])))
        body
    in
    let written = List.concat_map snd per_stmt |> List.sort_uniq compare in
    List.iter
      (fun h ->
        let touching = List.filter (fun (acc, _) -> List.mem h acc) per_stmt in
        if List.length touching > 1 then raise Ineligible)
      written;
    { p_kernel = kernel; p_bound = bound; p_body = body; p_table = table;
      p_n_int = n_int; p_n_float = n_float }
  with
  | prep -> Some prep
  | exception (Ineligible | Not_found | Invalid_argument _ | S.Sim_error _) -> None

(* Preparation and the analyzer's bounds proof are pure functions of the
   (program, launch) pair, and production schedules launch the same
   kernels over and over — so memoize both and pay them once per
   distinct launch, not once per execution. Keyed by {e physical}
   program identity (a transformed program is a fresh AST, so stale
   entries are unreachable, not wrong) plus structural launch equality;
   bounded so long fuzzing runs over thousands of throwaway programs
   don't accumulate dead preps. The prover verdict is filled lazily on
   the first run that wants unchecked accesses. *)
module Memo_key = struct
  type t = program * launch

  let equal ((p1 : program), (l1 : launch)) (p2, l2) = p1 == p2 && l1 = l2
  let hash ((p : program), (l : launch)) = Hashtbl.hash (p.p_name, l)
end

module Memo = Hashtbl.Make (Memo_key)

type memo_entry = { me_prep : prep option; mutable me_proved : bool option }

let memo : memo_entry Memo.t = Memo.create 64

let prepared prog l =
  match Memo.find_opt memo (prog, l) with
  | Some e -> e
  | None ->
      if Memo.length memo > 256 then Memo.reset memo;
      let e = { me_prep = prepare prog l; me_proved = None } in
      Memo.add memo (prog, l) e;
      e

let proved prog l e =
  match e.me_proved with
  | Some b -> b
  | None ->
      let b = !prover prog l in
      e.me_proved <- Some b;
      b

let eligible prog l = (prepared prog l).me_prep <> None

(* ------------------------------------------------------------------ *)
(* Lane compilation                                                    *)
(* ------------------------------------------------------------------ *)

type lane = {
  mutable tx : int;
  mutable ty : int;
  mutable tz : int;
  mutable bix : int;
  mutable biy : int;
  mutable biz : int;
  ir : int array;  (* slot-indexed scalar registers of the current thread *)
  fr : float array;
}

type env = {
  lane : lane;
  stats : S.stats;
  unsafe : bool;  (* bounds proved: elide global access range checks *)
  kname : string;
  lookup : string -> S.binding;
  read_flags : (string, bool ref) Hashtbl.t;
  write_flags : (string, bool ref) Hashtbl.t;
  acc : S.facc;
      (* float-expression accumulator: compiled float closures are
         [unit -> unit] writing here instead of returning a float (a
         float return across an indirect call is boxed — an allocation
         per expression node per thread, which the steady-state
         zero-allocation contract forbids) *)
  flacc : S.facc;
      (* flop accumulator; folded into [stats.flops] once per block (a
         [float] store into the mixed [stats] record boxes) *)
}

let err env msg = raise (S.Sim_error { kernel = env.kname; message = msg })

let int_slot env v = match env.lookup v with S.Int_slot s -> Some s | _ -> None

let rec compile_int env e : unit -> int =
  match S.static_int env.lookup e with
  | Some c -> fun () -> c
  | None -> (
      match e with
      | Int_lit i -> fun () -> i
      | Builtin b -> (
          let ln = env.lane in
          match b with
          | Thread_idx X -> fun () -> ln.tx
          | Thread_idx Y -> fun () -> ln.ty
          | Thread_idx Z -> fun () -> ln.tz
          | Block_idx X -> fun () -> ln.bix
          | Block_idx Y -> fun () -> ln.biy
          | Block_idx Z -> fun () -> ln.biz
          | Block_dim _ | Grid_dim _ ->
              err env "blockDim/gridDim must be compiled to constants")
      | Var v -> (
          match env.lookup v with
          | S.Const_int i -> fun () -> i
          | S.Int_slot s ->
              let ir = env.lane.ir in
              fun () -> Array.unsafe_get ir s
          | S.Const_float _ | S.Float_slot _ ->
              err env (Printf.sprintf "variable %s used as integer but is double" v)
          | S.Global _ | S.Shared _ -> err env (Printf.sprintf "array %s used as scalar" v))
      (* slot +/- constant in one closure (the post-affine hot shape) *)
      | (Binop (Add, Var v, Int_lit c) | Binop (Add, Int_lit c, Var v))
        when int_slot env v <> None ->
          let s = Option.get (int_slot env v) in
          let ir = env.lane.ir in
          fun () -> Array.unsafe_get ir s + c
      | Binop (Sub, Var v, Int_lit c) when int_slot env v <> None ->
          let s = Option.get (int_slot env v) in
          let ir = env.lane.ir in
          fun () -> Array.unsafe_get ir s - c
      | Binop (op, a, b) -> (
          let fa = compile_int env a and fb = compile_int env b in
          match op with
          | Add -> fun () -> fa () + fb ()
          | Sub -> fun () -> fa () - fb ()
          | Mul -> fun () -> fa () * fb ()
          | Div ->
              fun () ->
                let d = fb () in
                if d = 0 then err env "integer division by zero" else fa () / d
          | Mod ->
              fun () ->
                let d = fb () in
                if d = 0 then err env "integer modulo by zero" else fa () mod d
          | Lt -> fun () -> if fa () < fb () then 1 else 0
          | Le -> fun () -> if fa () <= fb () then 1 else 0
          | Gt -> fun () -> if fa () > fb () then 1 else 0
          | Ge -> fun () -> if fa () >= fb () then 1 else 0
          | Eq -> fun () -> if fa () = fb () then 1 else 0
          | Ne -> fun () -> if fa () <> fb () then 1 else 0
          | And -> fun () -> if fa () <> 0 && fb () <> 0 then 1 else 0
          | Or -> fun () -> if fa () <> 0 || fb () <> 0 then 1 else 0)
      | Unop (Neg, a) ->
          let f = compile_int env a in
          fun () -> -f ()
      | Unop (Not, a) ->
          let f = compile_int env a in
          fun () -> if f () = 0 then 1 else 0
      | Call ("min", [ a; b ]) ->
          let fa = compile_int env a and fb = compile_int env b in
          fun () -> min (fa ()) (fb ())
      | Call ("max", [ a; b ]) ->
          let fa = compile_int env a and fb = compile_int env b in
          fun () -> max (fa ()) (fb ())
      | Call ("abs", [ a ]) ->
          let f = compile_int env a in
          fun () -> abs (f ())
      | Ternary (c, a, b) ->
          let fc = compile_int env c
          and fa = compile_int env a
          and fb = compile_int env b in
          fun () -> if fc () <> 0 then fa () else fb ()
      | Double_lit _ -> err env "double literal in integer context"
      | Index (a, _) -> err env (Printf.sprintf "array %s read in integer context" a)
      | Call (f, _) -> err env (Printf.sprintf "call to %s in integer context" f))

and compile_cond env e : unit -> int =
  match e with
  | Binop (((Lt | Le | Gt | Ge | Eq | Ne) as op), a, b)
    when S.join (S.ty_of env.lookup a) (S.ty_of env.lookup b) = S.EFloat -> (
      (* accumulator form with a direct (monomorphic, allocation-free)
         comparison per operator: a generic [float -> float -> bool]
         closure would box both arguments at every call *)
      let acc = env.acc in
      let fa = compile_float env a and fb = compile_float env b in
      match op with
      | Lt ->
          fun () ->
            fa ();
            let x = acc.S.v in
            fb ();
            if x < acc.S.v then 1 else 0
      | Le ->
          fun () ->
            fa ();
            let x = acc.S.v in
            fb ();
            if x <= acc.S.v then 1 else 0
      | Gt ->
          fun () ->
            fa ();
            let x = acc.S.v in
            fb ();
            if x > acc.S.v then 1 else 0
      | Ge ->
          fun () ->
            fa ();
            let x = acc.S.v in
            fb ();
            if x >= acc.S.v then 1 else 0
      | Eq ->
          fun () ->
            fa ();
            let x = acc.S.v in
            fb ();
            if x = acc.S.v then 1 else 0
      | Ne ->
          fun () ->
            fa ();
            let x = acc.S.v in
            fb ();
            if x <> acc.S.v then 1 else 0
      | _ -> assert false)
  | Binop (And, a, b) ->
      let fa = compile_cond env a and fb = compile_cond env b in
      fun () -> if fa () <> 0 && fb () <> 0 then 1 else 0
  | Binop (Or, a, b) ->
      let fa = compile_cond env a and fb = compile_cond env b in
      fun () -> if fa () <> 0 || fb () <> 0 then 1 else 0
  | Unop (Not, a) ->
      let f = compile_cond env a in
      fun () -> if f () = 0 then 1 else 0
  | e -> compile_int env e

(* Accumulator float compilation: closures deposit their result in
   [env.acc] instead of returning it, so the steady-state inner loop
   performs no allocation at all (a float returned across an indirect
   call is boxed by the compiler). Every combination saves the left
   operand in an unboxed local between the two accumulator runs,
   reproducing the reference's left-associative evaluation — and
   therefore its rounding — bit for bit.
   [count = false]: the caller statically counted this statement's
   global reads and bumps [global_read_bytes] once per execution; only
   valid when the read count is not data-dependent. *)
and compile_float ?(count = true) env e : unit -> unit =
  let acc = env.acc in
  match S.ty_of env.lookup e with
  | S.EInt ->
      let f = compile_int env e in
      fun () -> acc.S.v <- float_of_int (f ())
  | S.EFloat -> (
      match e with
      | Double_lit f -> fun () -> acc.S.v <- f
      | Var v -> (
          match env.lookup v with
          | S.Const_float f -> fun () -> acc.S.v <- f
          | S.Float_slot s ->
              let fr = env.lane.fr in
              fun () -> acc.S.v <- Array.unsafe_get fr s
          | S.Const_int i ->
              let f = float_of_int i in
              fun () -> acc.S.v <- f
          | S.Int_slot s ->
              let ir = env.lane.ir in
              fun () -> acc.S.v <- float_of_int (Array.unsafe_get ir s)
          | S.Global _ | S.Shared _ ->
              err env (Printf.sprintf "array %s used as scalar" v))
      | Index (a, idxs) -> (
          match env.lookup a with
          | S.Global data -> (
              let single =
                match idxs with
                | [ i ] -> i
                | _ ->
                    err env
                      (Printf.sprintf "global array %s must use a single linearized index" a)
              in
              let n = A1.dim data in
              let stats = env.stats in
              let touched = S.usage_flag env.read_flags a in
              let oob i =
                err env
                  (Printf.sprintf "global array %s index %d out of bounds [0,%d)" a i n)
              in
              let ir = env.lane.ir in
              let fused =
                match single with
                | Var v -> Option.map (fun s -> (s, 0)) (int_slot env v)
                | Binop (Add, Var v, Int_lit c) | Binop (Add, Int_lit c, Var v) ->
                    Option.map (fun s -> (s, c)) (int_slot env v)
                | Binop (Sub, Var v, Int_lit c) ->
                    Option.map (fun s -> (s, -c)) (int_slot env v)
                | _ -> None
              in
              (* the fused (slot, offset) shape is inlined straight into
                 the access closure: one call, one register load, one
                 data load — no separate index closure on the hot path *)
              match (fused, env.unsafe, count) with
              | Some (s, off), true, true ->
                  fun () ->
                    stats.global_read_bytes <- stats.global_read_bytes + 8;
                    touched := true;
                    acc.S.v <- A1.unsafe_get data (Array.unsafe_get ir s + off)
              | Some (s, off), true, false ->
                  fun () ->
                    touched := true;
                    acc.S.v <- A1.unsafe_get data (Array.unsafe_get ir s + off)
              | Some (s, off), false, true ->
                  fun () ->
                    let i = Array.unsafe_get ir s + off in
                    if i < 0 || i >= n then oob i
                    else begin
                      stats.global_read_bytes <- stats.global_read_bytes + 8;
                      touched := true;
                      acc.S.v <- A1.unsafe_get data i
                    end
              | Some (s, off), false, false ->
                  fun () ->
                    let i = Array.unsafe_get ir s + off in
                    if i < 0 || i >= n then oob i
                    else begin
                      touched := true;
                      acc.S.v <- A1.unsafe_get data i
                    end
              | None, unsafe, count -> (
                  let idx = compile_int env single in
                  match (unsafe, count) with
                  | true, true ->
                      fun () ->
                        stats.global_read_bytes <- stats.global_read_bytes + 8;
                        touched := true;
                        acc.S.v <- A1.unsafe_get data (idx ())
                  | true, false ->
                      fun () ->
                        touched := true;
                        acc.S.v <- A1.unsafe_get data (idx ())
                  | false, true ->
                      fun () ->
                        let i = idx () in
                        if i < 0 || i >= n then oob i
                        else begin
                          stats.global_read_bytes <- stats.global_read_bytes + 8;
                          touched := true;
                          acc.S.v <- A1.unsafe_get data i
                        end
                  | false, false ->
                      fun () ->
                        let i = idx () in
                        if i < 0 || i >= n then oob i
                        else begin
                          touched := true;
                          acc.S.v <- A1.unsafe_get data i
                        end))
          | S.Shared _ -> err env "internal: shared memory on the vector path"
          | _ -> err env (Printf.sprintf "%s indexed but is not an array" a))
      | Binop ((Add | Sub), _, _)
        when (let ts = S.sum_terms e [] in
              let k = List.length ts in
              (* every term float-typed: an all-int prefix would be
                 evaluated in integer arithmetic by the nested
                 compilation, which flattening must not change *)
              k >= 3 && k <= 8
              && List.for_all (fun (_, term) -> S.ty_of env.lookup term = S.EFloat) ts) -> (
          (* flatten the chain into one closure: same left-associative
             combination (and thus the same rounding) as the nested
             [Binop] compilation, without the intermediate dispatches —
             the stencil-sum hot shape, exactly as on the affine path *)
          let fns =
            List.map
              (fun (sign, term) ->
                let f = compile_float ~count env term in
                if sign then f
                else
                  fun () ->
                    f ();
                    acc.S.v <- -.acc.S.v)
              (S.sum_terms e [])
          in
          match Array.of_list fns with
          | [| a; b; c |] ->
              fun () ->
                a ();
                let s = acc.S.v in
                b ();
                let s = s +. acc.S.v in
                c ();
                acc.S.v <- s +. acc.S.v
          | [| a; b; c; d |] ->
              fun () ->
                a ();
                let s = acc.S.v in
                b ();
                let s = s +. acc.S.v in
                c ();
                let s = s +. acc.S.v in
                d ();
                acc.S.v <- s +. acc.S.v
          | [| a; b; c; d; e |] ->
              fun () ->
                a ();
                let s = acc.S.v in
                b ();
                let s = s +. acc.S.v in
                c ();
                let s = s +. acc.S.v in
                d ();
                let s = s +. acc.S.v in
                e ();
                acc.S.v <- s +. acc.S.v
          | [| a; b; c; d; e; f |] ->
              fun () ->
                a ();
                let s = acc.S.v in
                b ();
                let s = s +. acc.S.v in
                c ();
                let s = s +. acc.S.v in
                d ();
                let s = s +. acc.S.v in
                e ();
                let s = s +. acc.S.v in
                f ();
                acc.S.v <- s +. acc.S.v
          | [| a; b; c; d; e; f; g |] ->
              fun () ->
                a ();
                let s = acc.S.v in
                b ();
                let s = s +. acc.S.v in
                c ();
                let s = s +. acc.S.v in
                d ();
                let s = s +. acc.S.v in
                e ();
                let s = s +. acc.S.v in
                f ();
                let s = s +. acc.S.v in
                g ();
                acc.S.v <- s +. acc.S.v
          | [| a; b; c; d; e; f; g; h |] ->
              fun () ->
                a ();
                let s = acc.S.v in
                b ();
                let s = s +. acc.S.v in
                c ();
                let s = s +. acc.S.v in
                d ();
                let s = s +. acc.S.v in
                e ();
                let s = s +. acc.S.v in
                f ();
                let s = s +. acc.S.v in
                g ();
                let s = s +. acc.S.v in
                h ();
                acc.S.v <- s +. acc.S.v
          | _ -> assert false (* arity guarded above *))
      | Binop (Mul, a, b) when S.const_float_of env.lookup a <> None ->
          let c = Option.get (S.const_float_of env.lookup a) in
          let fb = compile_float ~count env b in
          fun () ->
            fb ();
            acc.S.v <- c *. acc.S.v
      | Binop (Mul, a, b) when S.const_float_of env.lookup b <> None ->
          let c = Option.get (S.const_float_of env.lookup b) in
          let fa = compile_float ~count env a in
          fun () ->
            fa ();
            acc.S.v <- acc.S.v *. c
      | Binop (op, a, b) -> (
          let fa = compile_float ~count env a and fb = compile_float ~count env b in
          match op with
          | Add ->
              fun () ->
                fa ();
                let x = acc.S.v in
                fb ();
                acc.S.v <- x +. acc.S.v
          | Sub ->
              fun () ->
                fa ();
                let x = acc.S.v in
                fb ();
                acc.S.v <- x -. acc.S.v
          | Mul ->
              fun () ->
                fa ();
                let x = acc.S.v in
                fb ();
                acc.S.v <- x *. acc.S.v
          | Div ->
              fun () ->
                fa ();
                let x = acc.S.v in
                fb ();
                acc.S.v <- x /. acc.S.v
          | Mod ->
              fun () ->
                fa ();
                let x = acc.S.v in
                fb ();
                acc.S.v <- Float.rem x acc.S.v
          | _ -> err env "comparison in float context")
      | Unop (Neg, a) ->
          let f = compile_float ~count env a in
          fun () ->
            f ();
            acc.S.v <- -.acc.S.v
      | Unop (Not, _) -> err env "logical not in float context"
      | Ternary (c, a, b) ->
          (* branches count per-read, as in the reference: a [Ternary]
             anywhere forces [count = true] on the whole statement *)
          let fc = compile_cond env c
          and fa = compile_float env a
          and fb = compile_float env b in
          fun () -> if fc () <> 0 then fa () else fb ()
      | Call (fname, args) -> (
          let fargs = List.map (compile_float ~count env) args in
          match (fname, fargs) with
          | "sqrt", [ a ] ->
              fun () ->
                a ();
                acc.S.v <- sqrt acc.S.v
          | ("fabs" | "abs"), [ a ] ->
              fun () ->
                a ();
                acc.S.v <- Float.abs acc.S.v
          | "exp", [ a ] ->
              fun () ->
                a ();
                acc.S.v <- exp acc.S.v
          | "log", [ a ] ->
              fun () ->
                a ();
                acc.S.v <- log acc.S.v
          | "sin", [ a ] ->
              fun () ->
                a ();
                acc.S.v <- sin acc.S.v
          | "cos", [ a ] ->
              fun () ->
                a ();
                acc.S.v <- cos acc.S.v
          | "pow", [ a; b ] ->
              fun () ->
                a ();
                let x = acc.S.v in
                b ();
                acc.S.v <- Float.pow x acc.S.v
          | ("min" | "fmin"), [ a; b ] ->
              (* Stdlib [Float.min] inlined (its indirect call would box
                 both arguments): same -0.0 / nan discipline, bit for bit *)
              fun () ->
                a ();
                let x = acc.S.v in
                b ();
                let y = acc.S.v in
                acc.S.v <-
                  (if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then
                     if y <> y then y else x
                   else if x <> x then x
                   else y)
          | ("max" | "fmax"), [ a; b ] ->
              (* Stdlib [Float.max] inlined, same rationale *)
              fun () ->
                a ();
                let x = acc.S.v in
                b ();
                let y = acc.S.v in
                acc.S.v <-
                  (if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then
                     if x <> x then x else y
                   else if y <> y then y
                   else x)
          | "fma", [ a; b; c ] ->
              fun () ->
                a ();
                let x = acc.S.v in
                b ();
                let y = acc.S.v in
                c ();
                acc.S.v <- Float.fma x y acc.S.v
          | _ ->
              err env (Printf.sprintf "unsupported function %s/%d" fname (List.length args)))
      | Int_lit _ | Builtin _ -> assert false (* EInt-typed *))

let rec compile_seq env stmts : unit -> unit =
  match List.map (compile_stmt env) stmts with
  | [] -> fun () -> ()
  | [ f ] -> f
  | [ f; g ] ->
      fun () ->
        f ();
        g ()
  | [ f; g; h ] ->
      fun () ->
        f ();
        g ();
        h ()
  | fns ->
      let a = Array.of_list fns in
      let n = Array.length a in
      fun () ->
        for i = 0 to n - 1 do
          (Array.unsafe_get a i) ()
        done

and compile_stmt env s : unit -> unit =
  let stats = env.stats in
  match s with
  | Decl (_, v, None) ->
      ignore (env.lookup v);
      fun () -> ()
  | Decl (_, v, Some e) | Assign (Lvar v, e) -> (
      match env.lookup v with
      | S.Int_slot slot -> (
          let ir = env.lane.ir in
          match e with
          (* induction-variable increments from the affine pass *)
          | Binop (Add, Var v', Int_lit c) when v' = v ->
              fun () -> Array.unsafe_set ir slot (Array.unsafe_get ir slot + c)
          | Binop (Add, Var v', Var s2) when v' = v && int_slot env s2 <> None ->
              let s2 = Option.get (int_slot env s2) in
              fun () ->
                Array.unsafe_set ir slot (Array.unsafe_get ir slot + Array.unsafe_get ir s2)
          | _ ->
              let f = compile_int env e in
              fun () -> Array.unsafe_set ir slot (f ()))
      | S.Float_slot slot ->
          let sreads = S.static_read_count env.lookup e in
          let rb = match sreads with Some k -> 8 * k | None -> 0 in
          let f = compile_float ~count:(sreads = None) env e in
          let flops = float_of_int (S.float_flops env.lookup e) in
          let fr = env.lane.fr in
          let acc = env.acc and fl = env.flacc in
          (* flops accrue in the unboxed [flacc] cell and are synced to
             [stats.flops] once per block — a float store into the mixed
             int/float stats record would box on every statement *)
          if rb = 0 && flops = 0.0 then
            fun () ->
              f ();
              Array.unsafe_set fr slot acc.S.v
          else if rb = 0 then
            fun () ->
              f ();
              Array.unsafe_set fr slot acc.S.v;
              fl.S.v <- fl.S.v +. flops
          else if flops = 0.0 then
            fun () ->
              f ();
              Array.unsafe_set fr slot acc.S.v;
              stats.global_read_bytes <- stats.global_read_bytes + rb
          else
            fun () ->
              f ();
              Array.unsafe_set fr slot acc.S.v;
              stats.global_read_bytes <- stats.global_read_bytes + rb;
              fl.S.v <- fl.S.v +. flops
      | _ -> err env (Printf.sprintf "assignment to non-scalar %s" v))
  | Assign (Lindex (a, idxs), e) -> (
      match env.lookup a with
      | S.Global data -> (
          let single =
            match idxs with
            | [ i ] -> i
            | _ ->
                err env (Printf.sprintf "global array %s must use a single linearized index" a)
          in
          let sreads = S.static_read_count env.lookup e in
          let rb = match sreads with Some k -> 8 * k | None -> 0 in
          let rhs = compile_float ~count:(sreads = None) env e in
          let flops = float_of_int (S.float_flops env.lookup e) in
          let acc = env.acc and fl = env.flacc in
          let n = A1.dim data in
          let touched = S.usage_flag env.write_flags a in
          let oob i =
            err env (Printf.sprintf "global array %s index %d out of bounds [0,%d)" a i n)
          in
          let ir = env.lane.ir in
          let fused =
            match single with
            | Var v -> Option.map (fun s -> (s, 0)) (int_slot env v)
            | Binop (Add, Var v, Int_lit c) | Binop (Add, Int_lit c, Var v) ->
                Option.map (fun s -> (s, c)) (int_slot env v)
            | Binop (Sub, Var v, Int_lit c) ->
                Option.map (fun s -> (s, -c)) (int_slot env v)
            | _ -> None
          in
          match (fused, env.unsafe) with
          | Some (s, off), true ->
              fun () ->
                rhs ();
                A1.unsafe_set data (Array.unsafe_get ir s + off) acc.S.v;
                stats.global_read_bytes <- stats.global_read_bytes + rb;
                stats.global_write_bytes <- stats.global_write_bytes + 8;
                fl.S.v <- fl.S.v +. flops;
                touched := true
          | Some (s, off), false ->
              fun () ->
                let i = Array.unsafe_get ir s + off in
                if i < 0 || i >= n then oob i
                else begin
                  rhs ();
                  A1.unsafe_set data i acc.S.v;
                  stats.global_read_bytes <- stats.global_read_bytes + rb;
                  stats.global_write_bytes <- stats.global_write_bytes + 8;
                  fl.S.v <- fl.S.v +. flops;
                  touched := true
                end
          | None, true ->
              let idx = compile_int env single in
              fun () ->
                let i = idx () in
                rhs ();
                A1.unsafe_set data i acc.S.v;
                stats.global_read_bytes <- stats.global_read_bytes + rb;
                stats.global_write_bytes <- stats.global_write_bytes + 8;
                fl.S.v <- fl.S.v +. flops;
                touched := true
          | None, false ->
              let idx = compile_int env single in
              fun () ->
                let i = idx () in
                if i < 0 || i >= n then oob i
                else begin
                  rhs ();
                  A1.unsafe_set data i acc.S.v;
                  stats.global_read_bytes <- stats.global_read_bytes + rb;
                  stats.global_write_bytes <- stats.global_write_bytes + 8;
                  fl.S.v <- fl.S.v +. flops;
                  touched := true
                end)
      | _ -> err env (Printf.sprintf "%s is not an array" a))
  | If (c, tb, eb) ->
      (* nested conditional: plain dispatch, no divergence accounting —
         exactly the reference behaviour for non-top-level guards *)
      let fc = compile_cond env c in
      let ft = compile_seq env tb and fe = compile_seq env eb in
      fun () -> if fc () <> 0 then ft () else fe ()
  | For l -> (
      match env.lookup l.index with
      | S.Int_slot slot ->
          let flo = compile_int env l.lo and fhi = compile_int env l.hi in
          let ir = env.lane.ir in
          let step = l.step in
          let body = compile_seq env l.body in
          fun () ->
            let hi = fhi () in
            let i = ref (flo ()) in
            Array.unsafe_set ir slot !i;
            while !i < hi do
              body ();
              i := !i + step;
              Array.unsafe_set ir slot !i
            done
      | _ -> err env (Printf.sprintf "loop index %s is not an int slot" l.index))
  | Return | Syncthreads | Shared_decl _ ->
      err env "internal: statement excluded by vector eligibility"

(* Top-level statements: guards get an inline warp-divergence counter.
   [ones.(k)] accumulates, per warp, the threads whose k-th top-level
   guard was true; the per-warp flush in the grid loop turns the counts
   into [warp_cond_evals]/[divergent_warp_cond_evals] bumps identical to
   the reference's separate divergence pass (pure guards + full warps:
   every thread evaluates every top-level guard exactly once). *)
let compile_top env body =
  let nifs = List.fold_left (fun n s -> match s with If _ -> n + 1 | _ -> n) 0 body in
  let ones = Array.make (max nifs 1) 0 in
  let next = ref 0 in
  let fns =
    List.map
      (fun s ->
        match s with
        | If (c, tb, eb) ->
            let k = !next in
            incr next;
            let fc = compile_cond env c in
            let ft = compile_seq env tb and fe = compile_seq env eb in
            fun () ->
              if fc () <> 0 then begin
                Array.unsafe_set ones k (Array.unsafe_get ones k + 1);
                ft ()
              end
              else fe ()
        | s -> compile_stmt env s)
      body
  in
  (Array.of_list fns, ones, nifs)

(* ------------------------------------------------------------------ *)
(* Launch                                                              *)
(* ------------------------------------------------------------------ *)

(* Runs the launch if it is in the vectorizable fragment; [None] demurs
   to the lockstep backends. Returns the merged stats, the observed
   (read, written) PARAMETER name lists, and the chunk count used. *)
let try_run ?engine mem prog (l : launch) =
  let entry = prepared prog l in
  match entry.me_prep with
  | None -> None
  | Some prep ->
      let kernel = prep.p_kernel in
      (* the memo outlives this run's memory: rebinding the placeholders
         afterwards keeps it from pinning every arena it has run on *)
      let release () =
        List.iter
          (fun (p, a) ->
            match a with
            | Arg_array _ -> Hashtbl.replace prep.p_table p (S.Global Memory.empty_buf)
            | Arg_int _ | Arg_double _ -> ())
          prep.p_bound
      in
      let sizes_declared = ref true in
      List.iter
        (fun (p, a) ->
          match a with
          | Arg_array host -> (
              match Memory.get mem host with
              | data ->
                  Hashtbl.replace prep.p_table p (S.Global data);
                  (match find_array prog host with
                  | decl -> if A1.dim data <> array_cells decl then sizes_declared := false
                  | exception Not_found -> sizes_declared := false)
              | exception Memory.Unknown_array name ->
                  release ();
                  raise
                    (S.Sim_error
                       { kernel = kernel.k_name; message = "unknown device array " ^ name }))
          | Arg_int _ | Arg_double _ -> ())
        prep.p_bound;
      (* unchecked accesses need both the analyzer's in-bounds proof and
         backing arrays of exactly the declared extents the proof was
         computed against *)
      let unsafe = !sizes_declared && proved prog l entry in
      let bx, by, bz = l.l_block in
      let gx, gy, gz = grid_of_launch l in
      let nthreads = bx * by * bz in
      let blocks = gx * gy * gz in
      let txs = Array.init nthreads (fun t -> t mod bx)
      and tys = Array.init nthreads (fun t -> t / bx mod by)
      and tzs = Array.init nthreads (fun t -> t / (bx * by)) in
      let per_block =
        Array.init blocks (fun _ -> S.zero_stats ~shared_bytes_per_block:0 ~blocks_launched:1)
      in
      let run_chunk (b_lo, b_hi) =
        let lane =
          { tx = 0; ty = 0; tz = 0; bix = 0; biy = 0; biz = 0;
            ir = Array.make (max prep.p_n_int 1) 0;
            fr = Array.make (max prep.p_n_float 1) 0.0 }
        in
        let stats = S.zero_stats ~shared_bytes_per_block:0 ~blocks_launched:1 in
        let env =
          {
            lane;
            stats;
            unsafe;
            kname = kernel.k_name;
            lookup =
              (fun v ->
                match Hashtbl.find_opt prep.p_table v with
                | Some b -> b
                | None ->
                    raise
                      (S.Sim_error
                         { kernel = kernel.k_name; message = "unbound identifier " ^ v }));
            read_flags = Hashtbl.create 8;
            write_flags = Hashtbl.create 8;
            acc = { S.v = 0.0 };
            flacc = { S.v = 0.0 };
          }
        in
        let fns, ones, nifs = compile_top env prep.p_body in
        let nstmts = Array.length fns in
        for b = b_lo to b_hi do
          let base = S.copy_stats stats in
          lane.bix <- b mod gx;
          lane.biy <- b / gx mod gy;
          lane.biz <- b / (gx * gy);
          let t = ref 0 in
          while !t < nthreads do
            let wn = min 32 (nthreads - !t) in
            for q = !t to !t + wn - 1 do
              lane.tx <- Array.unsafe_get txs q;
              lane.ty <- Array.unsafe_get tys q;
              lane.tz <- Array.unsafe_get tzs q;
              for s = 0 to nstmts - 1 do
                (Array.unsafe_get fns s) ()
              done
            done;
            for k = 0 to nifs - 1 do
              stats.warp_cond_evals <- stats.warp_cond_evals + 1;
              let o = Array.unsafe_get ones k in
              if o > 0 && o < wn then
                stats.divergent_warp_cond_evals <- stats.divergent_warp_cond_evals + 1;
              Array.unsafe_set ones k 0
            done;
            t := !t + wn
          done;
          stats.threads_active <- stats.threads_active + nthreads;
          (* flops were accrued in the unboxed [flacc] cell; sync before
             diffing so the per-block delta is exact *)
          stats.flops <- env.flacc.S.v;
          per_block.(b) <- S.diff_stats stats base
        done;
        let observed tbl = Hashtbl.fold (fun p r acc -> if !r then p :: acc else acc) tbl [] in
        (observed env.read_flags, observed env.write_flags)
      in
      let jobs = match engine with Some e -> Engine.jobs e | None -> 1 in
      let workers = match engine with Some e -> Engine.workers e | None -> 1 in
      let nchunks = S.chunks_for ~jobs ~workers ~blocks in
      let ranges =
        List.init nchunks (fun c -> (c * blocks / nchunks, ((c + 1) * blocks / nchunks) - 1))
      in
      let usages =
        Fun.protect ~finally:release (fun () ->
            match engine with
            | Some e when nchunks > 1 -> Engine.map e run_chunk ranges
            | _ -> List.map run_chunk ranges)
      in
      (* deterministic merge: block-index order, independent of chunking *)
      let stats = S.zero_stats ~shared_bytes_per_block:0 ~blocks_launched:blocks in
      stats.threads_launched <- nthreads * blocks;
      Array.iter
        (fun b ->
          stats.global_read_bytes <- stats.global_read_bytes + b.S.global_read_bytes;
          stats.global_write_bytes <- stats.global_write_bytes + b.S.global_write_bytes;
          stats.flops <- stats.flops +. b.S.flops;
          stats.warp_cond_evals <- stats.warp_cond_evals + b.S.warp_cond_evals;
          stats.divergent_warp_cond_evals <-
            stats.divergent_warp_cond_evals + b.S.divergent_warp_cond_evals;
          stats.shared_hazards <- stats.shared_hazards + b.S.shared_hazards;
          stats.threads_active <- stats.threads_active + b.S.threads_active)
        per_block;
      let reads = List.concat_map fst usages and writes = List.concat_map snd usages in
      Some
        ( stats,
          (List.sort_uniq compare reads, List.sort_uniq compare writes),
          nchunks )
