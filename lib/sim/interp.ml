open Kft_cuda.Ast
module Engine = Kft_engine.Engine
module Trace = Kft_trace.Trace
module A1 = Bigarray.Array1

type stats = {
  mutable global_read_bytes : int;
  mutable global_write_bytes : int;
  mutable flops : float;
  mutable warp_cond_evals : int;
  mutable divergent_warp_cond_evals : int;
  mutable threads_launched : int;
  mutable threads_active : int;
  shared_bytes_per_block : int;
  blocks_launched : int;
}

let divergence_fraction s =
  if s.warp_cond_evals = 0 then 0.0
  else float_of_int s.divergent_warp_cond_evals /. float_of_int s.warp_cond_evals

let copy_stats s = { s with global_read_bytes = s.global_read_bytes }

let zero_stats ~shared_bytes_per_block ~blocks_launched =
  {
    global_read_bytes = 0;
    global_write_bytes = 0;
    flops = 0.0;
    warp_cond_evals = 0;
    divergent_warp_cond_evals = 0;
    threads_launched = 0;
    threads_active = 0;
    shared_bytes_per_block;
    blocks_launched;
  }

exception Sim_error of { kernel : string; message : string }

exception Thread_exit

(* Single-float-field record: OCaml stores the field flat (unboxed), so
   [acc.v <- x] is a plain store. The fast-path float compilers thread
   one of these through every compiled closure instead of returning
   floats — a float returned across an indirect closure call is boxed
   (an allocation per call), which is exactly what the steady-state
   zero-allocation contract of the affine path forbids. *)
type facc = { mutable v : float }

(* ------------------------------------------------------------------ *)
(* Compilation environment                                             *)
(* ------------------------------------------------------------------ *)

type binding =
  | Const_int of int
  | Const_float of float
  | Int_slot of int
  | Float_slot of int
  | Global of Memory.buf
  | Shared of int * int list  (* slot, declared dims *)

type st = {
  kernel_name : string;
  bx : int;
  by : int;
  bz : int;
  nthreads : int;
  txs : int array;
  tys : int array;
  tzs : int array;
  mutable bix : int;
  mutable biy : int;
  mutable biz : int;
  iregs : int array array;  (* slot-major: iregs.(slot).(thread) *)
  fregs : float array array;
  shmem : float array array;
  alive : bool array;
  stats : stats;
  has_return : bool;  (* no [return] anywhere: threads can never die *)
  fast : bool;
      (* compile the optimized closure forms (fused index reads, unsafe
         register-file accesses behind the interpreter's own bounds
         checks, single-pass guard evaluation). [false] keeps the plain
         reference compilation, which the bit-identity tests run the
         optimized path against. *)
  acc : facc;
      (* float-expression accumulator for the fast path: compiled float
         closures are [int -> unit] writing here instead of returning a
         float, because a float returned across an indirect call is
         boxed — an allocation per expression node per thread. The store
         to a single-float-field record is flat. *)
  flacc : facc;
      (* fast-path flop accumulator; folded into [stats.flops] once per
         chunk (a [float] store into the mixed [stats] record boxes) *)
}

let err st msg = raise (Sim_error { kernel = st.kernel_name; message = msg })

(* test hook: when set, every in-bounds global access on the
   interpretive path reports (write, array, linear index); the optimized
   affine path does not trace, so run with [~backend:Interpret].
   Used by the absint footprint-soundness property tests. *)
let access_trace : (write:bool -> string -> int -> unit) option ref = ref None

(* ------------------------------------------------------------------ *)
(* Type inference over the subset                                      *)
(* ------------------------------------------------------------------ *)

type ety = EInt | EFloat

let join a b = match (a, b) with EInt, EInt -> EInt | _ -> EFloat

let rec ty_of lookup e =
  match e with
  | Int_lit _ -> EInt
  | Double_lit _ -> EFloat
  | Builtin _ -> EInt
  | Var v -> (
      match lookup v with
      | Const_int _ | Int_slot _ -> EInt
      | Const_float _ | Float_slot _ -> EFloat
      | Global _ | Shared _ -> EFloat)
  | Binop ((Add | Sub | Mul | Div | Mod), a, b) -> join (ty_of lookup a) (ty_of lookup b)
  | Binop (_, _, _) -> EInt
  | Unop (Not, _) -> EInt
  | Unop (Neg, a) -> ty_of lookup a
  | Index _ -> EFloat
  | Call (("min" | "max" | "abs"), args) ->
      List.fold_left (fun acc a -> join acc (ty_of lookup a)) EInt args
  | Call _ -> EFloat
  | Ternary (_, a, b) -> join (ty_of lookup a) (ty_of lookup b)

(* static flop count of an expression (arithmetic on any operands;
   integer index arithmetic is excluded by construction because we only
   charge flops for float-typed subtrees) *)
let rec float_flops lookup e =
  match ty_of lookup e with
  | EInt -> 0
  | EFloat -> (
      match e with
      | Int_lit _ | Double_lit _ | Var _ | Builtin _ | Index _ -> 0
      | Binop ((Add | Sub | Mul | Div | Mod), a, b) ->
          1 + float_flops lookup a + float_flops lookup b
      | Binop (_, a, b) -> float_flops lookup a + float_flops lookup b
      | Unop (_, a) -> float_flops lookup a
      | Call ("fma", args) -> 2 + List.fold_left (fun acc a -> acc + float_flops lookup a) 0 args
      | Call (("sqrt" | "exp" | "log" | "pow" | "sin" | "cos"), args) ->
          4 + List.fold_left (fun acc a -> acc + float_flops lookup a) 0 args
      | Call (_, args) -> List.fold_left (fun acc a -> acc + float_flops lookup a) 0 args
      | Ternary (c, a, b) ->
          float_flops lookup c + max (float_flops lookup a) (float_flops lookup b))

(* ------------------------------------------------------------------ *)
(* Expression compilation                                              *)
(* ------------------------------------------------------------------ *)

let shared_addr st dims idx_fns name t =
  let rec go dims fns acc =
    match (dims, fns) with
    | [], [] -> acc
    | d :: dims', f :: fns' ->
        let i = f t in
        if i < 0 || i >= d then
          err st (Printf.sprintf "shared array %s index %d out of bounds [0,%d)" name i d)
        else go dims' fns' ((acc * d) + i)
    | _ -> err st (Printf.sprintf "shared array %s: wrong number of indices" name)
  in
  go dims idx_fns 0

(* Left-leaning [+]/[-] chains, leftmost term first. [a + b - c] yields
   [(true, a); (true, b); (false, c)]: the sign belongs to the term, and
   since IEEE subtraction is addition of the negated operand, folding the
   sign into the leaf closure is bit-exact. *)
let rec sum_terms e acc =
  match e with
  | Binop (Add, l, r) -> sum_terms l ((true, r) :: acc)
  | Binop (Sub, l, r) -> sum_terms l ((false, r) :: acc)
  | _ -> (true, e) :: acc

(* compile-time integer constants: literals, bound scalar parameters and
   non-trapping arithmetic over them (Div/Mod are left to the runtime so
   a division by zero still raises per-thread, as the reference does) *)
let rec static_int lookup e =
  match e with
  | Int_lit i -> Some i
  | Var v -> ( match lookup v with Const_int i -> Some i | _ -> None)
  | Binop (op, a, b) -> (
      match (static_int lookup a, static_int lookup b) with
      | Some x, Some y -> (
          match op with
          | Add -> Some (x + y)
          | Sub -> Some (x - y)
          | Mul -> Some (x * y)
          | Div | Mod -> None
          | Lt -> Some (if x < y then 1 else 0)
          | Le -> Some (if x <= y then 1 else 0)
          | Gt -> Some (if x > y then 1 else 0)
          | Ge -> Some (if x >= y then 1 else 0)
          | Eq -> Some (if x = y then 1 else 0)
          | Ne -> Some (if x <> y then 1 else 0)
          | And -> Some (if x <> 0 && y <> 0 then 1 else 0)
          | Or -> Some (if x <> 0 || y <> 0 then 1 else 0))
      | _ -> None)
  | Unop (Neg, a) -> Option.map (fun x -> -x) (static_int lookup a)
  | Unop (Not, a) -> Option.map (fun x -> if x = 0 then 1 else 0) (static_int lookup a)
  | _ -> None

(* compile-time float constants (literals and bound scalar parameters) *)
let const_float_of lookup e =
  match e with
  | Double_lit f -> Some f
  | Int_lit i -> Some (float_of_int i)
  | Var v -> (
      match lookup v with
      | Const_float f -> Some f
      | Const_int i -> Some (float_of_int i)
      | _ -> None)
  | _ -> None

let rec compile_int st lookup e : int -> int =
  match (if st.fast then static_int lookup e else None) with
  | Some c -> fun _ -> c
  | None -> (
  match e with
  | Int_lit i -> fun _ -> i
  | Builtin b -> (
      let { txs; tys; tzs; _ } = st in
      match b with
      | Thread_idx X ->
          if st.fast then fun t -> Array.unsafe_get txs t else fun t -> txs.(t)
      | Thread_idx Y ->
          if st.fast then fun t -> Array.unsafe_get tys t else fun t -> tys.(t)
      | Thread_idx Z ->
          if st.fast then fun t -> Array.unsafe_get tzs t else fun t -> tzs.(t)
      | Block_idx X -> fun _ -> st.bix
      | Block_idx Y -> fun _ -> st.biy
      | Block_idx Z -> fun _ -> st.biz
      | Block_dim _ | Grid_dim _ -> err st "blockDim/gridDim must be compiled to constants")
  | Var v -> (
      match lookup v with
      | Const_int i -> fun _ -> i
      | Int_slot s ->
          let arr = st.iregs.(s) in
          if st.fast then fun t -> Array.unsafe_get arr t else fun t -> arr.(t)
      | Const_float _ | Float_slot _ -> err st (Printf.sprintf "variable %s used as integer but is double" v)
      | Global _ | Shared _ -> err st (Printf.sprintf "array %s used as scalar" v))
  (* peepholes for the post-affine hot shapes: slot +/- constant in one
     closure instead of three. Register files are indexed by the thread
     id, which the exec loops keep inside [0, nthreads), so the checked
     access is provably redundant. *)
  | (Binop (Add, Var v, Int_lit c) | Binop (Add, Int_lit c, Var v))
    when st.fast && (match lookup v with Int_slot _ -> true | _ -> false) ->
      let arr = match lookup v with Int_slot s -> st.iregs.(s) | _ -> assert false in
      fun t -> Array.unsafe_get arr t + c
  | Binop (Sub, Var v, Int_lit c)
    when st.fast && (match lookup v with Int_slot _ -> true | _ -> false) ->
      let arr = match lookup v with Int_slot s -> st.iregs.(s) | _ -> assert false in
      fun t -> Array.unsafe_get arr t - c
  | (Binop (Add, a, Int_lit c) | Binop (Add, Int_lit c, a)) when st.fast ->
      let fa = compile_int st lookup a in
      fun t -> fa t + c
  | Binop (Sub, a, Int_lit c) when st.fast ->
      let fa = compile_int st lookup a in
      fun t -> fa t - c
  | (Binop (Mul, a, Int_lit c) | Binop (Mul, Int_lit c, a)) when st.fast ->
      let fa = compile_int st lookup a in
      fun t -> fa t * c
  (* the canonical thread-id expression [blockIdx.d * blockDim.d +
     threadIdx.d'] in one closure *)
  | Binop (Add, Binop (Mul, Builtin (Block_idx db), Int_lit c), Builtin (Thread_idx dt))
    when st.fast ->
      let tarr = match dt with X -> st.txs | Y -> st.tys | Z -> st.tzs in
      (match db with
      | X -> fun t -> (st.bix * c) + Array.unsafe_get tarr t
      | Y -> fun t -> (st.biy * c) + Array.unsafe_get tarr t
      | Z -> fun t -> (st.biz * c) + Array.unsafe_get tarr t)
  (* guard compares against compile-time constants in one closure *)
  | Binop (((Lt | Le | Gt | Ge | Eq | Ne) as op), Var v, b)
    when st.fast
         && (match lookup v with Int_slot _ -> true | _ -> false)
         && static_int lookup b <> None -> (
      let arr = match lookup v with Int_slot s -> st.iregs.(s) | _ -> assert false in
      let c = Option.get (static_int lookup b) in
      match op with
      | Lt -> fun t -> if Array.unsafe_get arr t < c then 1 else 0
      | Le -> fun t -> if Array.unsafe_get arr t <= c then 1 else 0
      | Gt -> fun t -> if Array.unsafe_get arr t > c then 1 else 0
      | Ge -> fun t -> if Array.unsafe_get arr t >= c then 1 else 0
      | Eq -> fun t -> if Array.unsafe_get arr t = c then 1 else 0
      | Ne -> fun t -> if Array.unsafe_get arr t <> c then 1 else 0
      | _ -> assert false)
  | Binop (((Lt | Le | Gt | Ge | Eq | Ne) as op), a, Var v)
    when st.fast
         && (match lookup v with Int_slot _ -> true | _ -> false)
         && static_int lookup a <> None -> (
      let arr = match lookup v with Int_slot s -> st.iregs.(s) | _ -> assert false in
      let c = Option.get (static_int lookup a) in
      match op with
      | Lt -> fun t -> if c < Array.unsafe_get arr t then 1 else 0
      | Le -> fun t -> if c <= Array.unsafe_get arr t then 1 else 0
      | Gt -> fun t -> if c > Array.unsafe_get arr t then 1 else 0
      | Ge -> fun t -> if c >= Array.unsafe_get arr t then 1 else 0
      | Eq -> fun t -> if c = Array.unsafe_get arr t then 1 else 0
      | Ne -> fun t -> if c <> Array.unsafe_get arr t then 1 else 0
      | _ -> assert false)
  | Binop (op, a, b) -> (
      let fa = compile_int st lookup a and fb = compile_int st lookup b in
      match op with
      | Add -> fun t -> fa t + fb t
      | Sub -> fun t -> fa t - fb t
      | Mul -> fun t -> fa t * fb t
      | Div ->
          fun t ->
            let d = fb t in
            if d = 0 then err st "integer division by zero" else fa t / d
      | Mod ->
          fun t ->
            let d = fb t in
            if d = 0 then err st "integer modulo by zero" else fa t mod d
      | Lt -> fun t -> if fa t < fb t then 1 else 0
      | Le -> fun t -> if fa t <= fb t then 1 else 0
      | Gt -> fun t -> if fa t > fb t then 1 else 0
      | Ge -> fun t -> if fa t >= fb t then 1 else 0
      | Eq -> fun t -> if fa t = fb t then 1 else 0
      | Ne -> fun t -> if fa t <> fb t then 1 else 0
      | And -> fun t -> if fa t <> 0 && fb t <> 0 then 1 else 0
      | Or -> fun t -> if fa t <> 0 || fb t <> 0 then 1 else 0)
  | Unop (Neg, a) ->
      let f = compile_int st lookup a in
      fun t -> -f t
  | Unop (Not, a) ->
      let f = compile_int st lookup a in
      fun t -> if f t = 0 then 1 else 0
  | Call ("min", [ a; b ]) ->
      let fa = compile_int st lookup a and fb = compile_int st lookup b in
      fun t -> min (fa t) (fb t)
  | Call ("max", [ a; b ]) ->
      let fa = compile_int st lookup a and fb = compile_int st lookup b in
      fun t -> max (fa t) (fb t)
  | Call ("abs", [ a ]) ->
      let f = compile_int st lookup a in
      fun t -> abs (f t)
  | Ternary (c, a, b) ->
      let fc = compile_int st lookup c
      and fa = compile_int st lookup a
      and fb = compile_int st lookup b in
      fun t -> if fc t <> 0 then fa t else fb t
  | Double_lit _ -> err st "double literal in integer context"
  | Index (a, _) -> err st (Printf.sprintf "array %s read in integer context" a)
  | Call (f, _) -> err st (Printf.sprintf "call to %s in integer context" f))

(* Comparison/logic over possibly-float operands, yielding int 0/1. *)
and compile_cond st lookup e : int -> int =
  match e with
  | Binop (((Lt | Le | Gt | Ge | Eq | Ne) as op), a, b)
    when join (ty_of lookup a) (ty_of lookup b) = EFloat ->
      if st.fast then begin
        (* accumulator form with a direct (monomorphic, allocation-free)
           comparison per operator: the generic [cmp] closure below would
           box both float arguments at every call *)
        let acc = st.acc in
        let fa = acompile_float st lookup a and fb = acompile_float st lookup b in
        match op with
        | Lt ->
            fun t ->
              fa t;
              let x = acc.v in
              fb t;
              if x < acc.v then 1 else 0
        | Le ->
            fun t ->
              fa t;
              let x = acc.v in
              fb t;
              if x <= acc.v then 1 else 0
        | Gt ->
            fun t ->
              fa t;
              let x = acc.v in
              fb t;
              if x > acc.v then 1 else 0
        | Ge ->
            fun t ->
              fa t;
              let x = acc.v in
              fb t;
              if x >= acc.v then 1 else 0
        | Eq ->
            fun t ->
              fa t;
              let x = acc.v in
              fb t;
              if x = acc.v then 1 else 0
        | Ne ->
            fun t ->
              fa t;
              let x = acc.v in
              fb t;
              if x <> acc.v then 1 else 0
        | _ -> assert false
      end
      else
        let fa = compile_float st lookup a and fb = compile_float st lookup b in
        let cmp : float -> float -> bool =
          match op with
          | Lt -> ( < )
          | Le -> ( <= )
          | Gt -> ( > )
          | Ge -> ( >= )
          | Eq -> ( = )
          | Ne -> ( <> )
          | _ -> assert false
        in
        fun t -> if cmp (fa t) (fb t) then 1 else 0
  | Binop (And, a, b) ->
      let fa = compile_cond st lookup a and fb = compile_cond st lookup b in
      fun t -> if fa t <> 0 && fb t <> 0 then 1 else 0
  | Binop (Or, a, b) ->
      let fa = compile_cond st lookup a and fb = compile_cond st lookup b in
      fun t -> if fa t <> 0 || fb t <> 0 then 1 else 0
  | Unop (Not, a) ->
      let f = compile_cond st lookup a in
      fun t -> if f t = 0 then 1 else 0
  | e -> compile_int st lookup e

(* Reference float compilation ([st.fast = false] launches): closures
   return their float (boxed per indirect call — fine for the reference
   semantics the bit-identity tests diff the fast paths against), every
   global read is individually checked, counted and access-traced. *)
and compile_float st lookup e : int -> float =
  match ty_of lookup e with
  | EInt ->
      let f = compile_int st lookup e in
      fun t -> float_of_int (f t)
  | EFloat -> (
      match e with
      | Double_lit f -> fun _ -> f
      | Var v -> (
          match lookup v with
          | Const_float f -> fun _ -> f
          | Float_slot s ->
              let arr = st.fregs.(s) in
              fun t -> arr.(t)
          | Const_int i -> fun _ -> float_of_int i
          | Int_slot s ->
              let arr = st.iregs.(s) in
              fun t -> float_of_int arr.(t)
          | Global _ | Shared _ -> err st (Printf.sprintf "array %s used as scalar" v))
      | Index (a, idxs) -> (
          match lookup a with
          | Global data ->
              let idx =
                match idxs with
                | [ i ] -> compile_int st lookup i
                | _ -> err st (Printf.sprintf "global array %s must use a single linearized index" a)
              in
              let n = A1.dim data in
              let stats = st.stats in
              fun t ->
                let i = idx t in
                if i < 0 || i >= n then
                  err st (Printf.sprintf "global array %s index %d out of bounds [0,%d)" a i n)
                else begin
                  (match !access_trace with Some f -> f ~write:false a i | None -> ());
                  stats.global_read_bytes <- stats.global_read_bytes + 8;
                  A1.unsafe_get data i
                end
          | Shared (slot, dims) ->
              let idx_fns = List.map (compile_int st lookup) idxs in
              fun t -> st.shmem.(slot).(shared_addr st dims idx_fns a t)
          | _ -> err st (Printf.sprintf "%s indexed but is not an array" a))
      | Binop (op, a, b) -> (
          let fa = compile_float st lookup a
          and fb = compile_float st lookup b in
          match op with
          | Add -> fun t -> fa t +. fb t
          | Sub -> fun t -> fa t -. fb t
          | Mul -> fun t -> fa t *. fb t
          | Div -> fun t -> fa t /. fb t
          | Mod -> fun t -> Float.rem (fa t) (fb t)
          | _ -> err st "comparison in float context")
      | Unop (Neg, a) ->
          let f = compile_float st lookup a in
          fun t -> -.f t
      | Unop (Not, _) -> err st "logical not in float context"
      | Ternary (c, a, b) ->
          let fc = compile_cond st lookup c
          and fa = compile_float st lookup a
          and fb = compile_float st lookup b in
          fun t -> if fc t <> 0 then fa t else fb t
      | Call (fname, args) -> (
          let fargs = List.map (compile_float st lookup) args in
          match (fname, fargs) with
          | ("sqrt", [ a ]) -> fun t -> sqrt (a t)
          | ("fabs", [ a ]) | ("abs", [ a ]) -> fun t -> Float.abs (a t)
          | ("exp", [ a ]) -> fun t -> exp (a t)
          | ("log", [ a ]) -> fun t -> log (a t)
          | ("sin", [ a ]) -> fun t -> sin (a t)
          | ("cos", [ a ]) -> fun t -> cos (a t)
          | ("pow", [ a; b ]) -> fun t -> Float.pow (a t) (b t)
          | (("min" | "fmin"), [ a; b ]) -> fun t -> Float.min (a t) (b t)
          | (("max" | "fmax"), [ a; b ]) -> fun t -> Float.max (a t) (b t)
          | ("fma", [ a; b; c ]) -> fun t -> Float.fma (a t) (b t) (c t)
          | _ ->
              err st
                (Printf.sprintf "unsupported function %s/%d" fname (List.length args)))
      | Int_lit _ | Builtin _ -> assert false (* EInt-typed *))

(* Fast-path float compilation: closures deposit their result in
   [st.acc] instead of returning it, so the steady-state inner loop
   performs no allocation at all (a float return across an indirect call
   is boxed by the compiler). Every combination saves the left operand
   in an unboxed local between the two accumulator runs, reproducing the
   reference's left-associative evaluation — and therefore its rounding —
   bit for bit. [count = false] elides the per-read
   [global_read_bytes] bump: the caller has statically counted the reads
   in the whole expression and bumps the total once per statement
   execution. Only valid when the read count is not data-dependent (no
   [Ternary] on any path). *)
and acompile_float ?(count = true) st lookup e : int -> unit =
  let acc = st.acc in
  match ty_of lookup e with
  | EInt ->
      let f = compile_int st lookup e in
      fun t -> acc.v <- float_of_int (f t)
  | EFloat -> (
      match e with
      | Double_lit f -> fun _ -> acc.v <- f
      | Var v -> (
          match lookup v with
          | Const_float f -> fun _ -> acc.v <- f
          | Float_slot s ->
              let arr = st.fregs.(s) in
              fun t -> acc.v <- Array.unsafe_get arr t
          | Const_int i ->
              let f = float_of_int i in
              fun _ -> acc.v <- f
          | Int_slot s ->
              let arr = st.iregs.(s) in
              fun t -> acc.v <- float_of_int (Array.unsafe_get arr t)
          | Global _ | Shared _ -> err st (Printf.sprintf "array %s used as scalar" v))
      | Index (a, idxs) -> (
          match lookup a with
          | Global data -> (
              let single =
                match idxs with
                | [ i ] -> i
                | _ -> err st (Printf.sprintf "global array %s must use a single linearized index" a)
              in
              let n = A1.dim data in
              let stats = st.stats in
              let oob i =
                err st (Printf.sprintf "global array %s index %d out of bounds [0,%d)" a i n)
              in
              let slot v = match lookup v with Int_slot s -> Some st.iregs.(s) | _ -> None in
              (* fuse the post-affine index shapes (slot, slot +/- c) into
                 the read closure: one call, one bounds check, one load *)
              let fused =
                match single with
                | Var v -> Option.map (fun arr -> (arr, 0)) (slot v)
                | Binop (Add, Var v, Int_lit c) | Binop (Add, Int_lit c, Var v) ->
                    Option.map (fun arr -> (arr, c)) (slot v)
                | Binop (Sub, Var v, Int_lit c) -> Option.map (fun arr -> (arr, -c)) (slot v)
                | _ -> None
              in
              match fused with
              | Some (arr, off) when count ->
                  fun t ->
                    let i = Array.unsafe_get arr t + off in
                    if i < 0 || i >= n then oob i
                    else begin
                      stats.global_read_bytes <- stats.global_read_bytes + 8;
                      acc.v <- A1.unsafe_get data i
                    end
              | Some (arr, off) ->
                  fun t ->
                    let i = Array.unsafe_get arr t + off in
                    if i < 0 || i >= n then oob i else acc.v <- A1.unsafe_get data i
              | None ->
                  let idx = compile_int st lookup single in
                  if count then
                    fun t ->
                      let i = idx t in
                      if i < 0 || i >= n then oob i
                      else begin
                        stats.global_read_bytes <- stats.global_read_bytes + 8;
                        acc.v <- A1.unsafe_get data i
                      end
                  else
                    fun t ->
                      let i = idx t in
                      if i < 0 || i >= n then oob i else acc.v <- A1.unsafe_get data i)
          | Shared (slot, dims) ->
              let idx_fns = List.map (compile_int st lookup) idxs in
              fun t -> acc.v <- st.shmem.(slot).(shared_addr st dims idx_fns a t)
          | _ -> err st (Printf.sprintf "%s indexed but is not an array" a))
      | Binop ((Add | Sub), _, _)
        when (let ts = sum_terms e [] in
              let k = List.length ts in
              (* every term float-typed: an all-int prefix would be
                 evaluated in integer arithmetic by the nested
                 compilation, which flattening must not change *)
              k >= 3 && k <= 8
              && List.for_all (fun (_, term) -> ty_of lookup term = EFloat) ts) -> (
          (* flatten the chain into one closure: same left-associative
             combination (and thus the same rounding) as the nested
             [Binop] compilation, without the intermediate dispatches *)
          let fns =
            List.map
              (fun (sign, term) ->
                let f = acompile_float ~count st lookup term in
                if sign then f
                else
                  fun t ->
                    f t;
                    acc.v <- -.acc.v)
              (sum_terms e [])
          in
          match Array.of_list fns with
          | [| a; b; c |] ->
              fun t ->
                a t;
                let s = acc.v in
                b t;
                let s = s +. acc.v in
                c t;
                acc.v <- s +. acc.v
          | [| a; b; c; d |] ->
              fun t ->
                a t;
                let s = acc.v in
                b t;
                let s = s +. acc.v in
                c t;
                let s = s +. acc.v in
                d t;
                acc.v <- s +. acc.v
          | [| a; b; c; d; e |] ->
              fun t ->
                a t;
                let s = acc.v in
                b t;
                let s = s +. acc.v in
                c t;
                let s = s +. acc.v in
                d t;
                let s = s +. acc.v in
                e t;
                acc.v <- s +. acc.v
          | [| a; b; c; d; e; f |] ->
              fun t ->
                a t;
                let s = acc.v in
                b t;
                let s = s +. acc.v in
                c t;
                let s = s +. acc.v in
                d t;
                let s = s +. acc.v in
                e t;
                let s = s +. acc.v in
                f t;
                acc.v <- s +. acc.v
          | [| a; b; c; d; e; f; g |] ->
              fun t ->
                a t;
                let s = acc.v in
                b t;
                let s = s +. acc.v in
                c t;
                let s = s +. acc.v in
                d t;
                let s = s +. acc.v in
                e t;
                let s = s +. acc.v in
                f t;
                let s = s +. acc.v in
                g t;
                acc.v <- s +. acc.v
          | [| a; b; c; d; e; f; g; h |] ->
              fun t ->
                a t;
                let s = acc.v in
                b t;
                let s = s +. acc.v in
                c t;
                let s = s +. acc.v in
                d t;
                let s = s +. acc.v in
                e t;
                let s = s +. acc.v in
                f t;
                let s = s +. acc.v in
                g t;
                let s = s +. acc.v in
                h t;
                acc.v <- s +. acc.v
          | _ -> assert false (* arity guarded above *))
      | Binop (Mul, a, b) when const_float_of lookup a <> None ->
          let c = Option.get (const_float_of lookup a) in
          let fb = acompile_float ~count st lookup b in
          fun t ->
            fb t;
            acc.v <- c *. acc.v
      | Binop (Mul, a, b) when const_float_of lookup b <> None ->
          let c = Option.get (const_float_of lookup b) in
          let fa = acompile_float ~count st lookup a in
          fun t ->
            fa t;
            acc.v <- acc.v *. c
      | Binop (op, a, b) -> (
          let fa = acompile_float ~count st lookup a
          and fb = acompile_float ~count st lookup b in
          match op with
          | Add ->
              fun t ->
                fa t;
                let x = acc.v in
                fb t;
                acc.v <- x +. acc.v
          | Sub ->
              fun t ->
                fa t;
                let x = acc.v in
                fb t;
                acc.v <- x -. acc.v
          | Mul ->
              fun t ->
                fa t;
                let x = acc.v in
                fb t;
                acc.v <- x *. acc.v
          | Div ->
              fun t ->
                fa t;
                let x = acc.v in
                fb t;
                acc.v <- x /. acc.v
          | Mod ->
              fun t ->
                fa t;
                let x = acc.v in
                fb t;
                acc.v <- Float.rem x acc.v
          | _ -> err st "comparison in float context")
      | Unop (Neg, a) ->
          let f = acompile_float ~count st lookup a in
          fun t ->
            f t;
            acc.v <- -.acc.v
      | Unop (Not, _) -> err st "logical not in float context"
      | Ternary (c, a, b) ->
          let fc = compile_cond st lookup c
          and fa = acompile_float st lookup a
          and fb = acompile_float st lookup b in
          fun t -> if fc t <> 0 then fa t else fb t
      | Call (fname, args) -> (
          let fargs = List.map (acompile_float ~count st lookup) args in
          match (fname, fargs) with
          | ("sqrt", [ a ]) ->
              fun t ->
                a t;
                acc.v <- sqrt acc.v
          | ("fabs", [ a ]) | ("abs", [ a ]) ->
              fun t ->
                a t;
                acc.v <- Float.abs acc.v
          | ("exp", [ a ]) ->
              fun t ->
                a t;
                acc.v <- exp acc.v
          | ("log", [ a ]) ->
              fun t ->
                a t;
                acc.v <- log acc.v
          | ("sin", [ a ]) ->
              fun t ->
                a t;
                acc.v <- sin acc.v
          | ("cos", [ a ]) ->
              fun t ->
                a t;
                acc.v <- cos acc.v
          | ("pow", [ a; b ]) ->
              fun t ->
                a t;
                let x = acc.v in
                b t;
                acc.v <- Float.pow x acc.v
          | (("min" | "fmin"), [ a; b ]) ->
              (* Stdlib [Float.min] inlined (its indirect call would box
                 both arguments): same -0.0 / nan discipline, bit for bit *)
              fun t ->
                a t;
                let x = acc.v in
                b t;
                let y = acc.v in
                acc.v <-
                  (if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then
                     if y <> y then y else x
                   else if x <> x then x
                   else y)
          | (("max" | "fmax"), [ a; b ]) ->
              (* Stdlib [Float.max] inlined, same rationale *)
              fun t ->
                a t;
                let x = acc.v in
                b t;
                let y = acc.v in
                acc.v <-
                  (if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then
                     if x <> x then x else y
                   else if y <> y then y
                   else x)
          | ("fma", [ a; b; c ]) ->
              fun t ->
                a t;
                let x = acc.v in
                b t;
                let y = acc.v in
                c t;
                acc.v <- Float.fma x y acc.v
          | _ ->
              err st
                (Printf.sprintf "unsupported function %s/%d" fname (List.length args)))
      | Int_lit _ | Builtin _ -> assert false (* EInt-typed *))

(* ------------------------------------------------------------------ *)
(* Statement compilation                                               *)
(* ------------------------------------------------------------------ *)

type cstmt =
  | Leaf of { fn : int -> unit; cond : (int -> int) option }
  | GLeaf of (int -> int) * (int -> unit) * (int -> unit)
      (* sync-free [If] whose condition is pure integer arithmetic
         (no array reads, calls, or trapping Div/Mod): the condition is
         evaluated once per thread, serving both the warp-divergence
         accounting and the branch dispatch, where [Leaf] evaluates it
         twice. Purity makes the single evaluation observationally
         identical. *)
  | CIf of (int -> int) * cstmt list * cstmt list
  | CFor of {
      set : int -> int -> unit;  (* thread -> value -> () *)
      get_lo : int -> int;
      get_hi : int -> int;
      step : int;
      body : cstmt list;
    }
  | CSync

let has_sync stmts =
  fold_stmts (fun acc s -> acc || s = Syncthreads) false stmts

let stmts_read_var v stmts =
  let found = ref false in
  ignore
    (map_exprs_in_stmts
       (fun e ->
         (match e with Var x when x = v -> found := true | _ -> ());
         e)
       stmts);
  !found

(* integer-only, side-effect-free, non-trapping conditions: evaluating
   them once (GLeaf) or twice (Leaf: divergence pass + dispatch) is
   indistinguishable — no stats, no memory traffic, no Sim_error *)
let rec pure_int_cond lookup e =
  match e with
  | Int_lit _ -> true
  | Builtin (Thread_idx _ | Block_idx _) -> true
  | Builtin _ -> false
  | Var v -> ( match lookup v with Const_int _ | Int_slot _ -> true | _ -> false)
  | Binop ((Div | Mod), _, _) -> false
  | Binop (_, a, b) -> pure_int_cond lookup a && pure_int_cond lookup b
  | Unop (_, a) -> pure_int_cond lookup a
  | Ternary (c, a, b) ->
      pure_int_cond lookup c && pure_int_cond lookup a && pure_int_cond lookup b
  | Double_lit _ | Index _ | Call _ -> false

(* number of global-array reads one evaluation of [e] performs, or
   [None] when the count is data-dependent (a [Ternary] picks a branch
   at run time). Shared-memory reads are excluded: they do not touch
   [global_read_bytes]. *)
let static_read_count lookup e =
  let rec go e =
    match e with
    | Index (a, _) -> ( match lookup a with Global _ -> 1 | _ -> 0)
    | Binop (_, a, b) -> go a + go b
    | Unop (_, a) -> go a
    | Call (_, args) -> List.fold_left (fun acc a -> acc + go a) 0 args
    | Ternary _ -> raise Exit
    | Int_lit _ | Double_lit _ | Var _ | Builtin _ -> 0
  in
  try Some (go e) with Exit -> None

(* compile a statement list into a single per-thread closure (no syncs
   inside, guaranteed by caller) *)
let rec compile_thread_fn st lookup stmts : int -> unit =
  let fns = List.map (compile_thread_stmt st lookup) stmts in
  match fns with
  | [ f ] -> f
  | [ f; g ] when st.fast ->
      fun t ->
        f t;
        g t
  | [ f; g; h ] when st.fast ->
      fun t ->
        f t;
        g t;
        h t
  | fns when st.fast ->
      let a = Array.of_list fns in
      let n = Array.length a in
      fun t ->
        for i = 0 to n - 1 do
          (Array.unsafe_get a i) t
        done
  | fns -> fun t -> List.iter (fun f -> f t) fns

and compile_thread_stmt st lookup s : int -> unit =
  let stats = st.stats in
  match s with
  | Decl (_, v, None) ->
      ignore (lookup v);
      fun _ -> ()
  | Decl (_, v, Some e) | Assign (Lvar v, e) -> (
      match lookup v with
      | Int_slot slot -> (
          let arr = st.iregs.(slot) in
          match e with
          (* induction-variable increments from the affine pass *)
          | Binop (Add, Var v', Int_lit c) when st.fast && v' = v ->
              fun t -> Array.unsafe_set arr t (Array.unsafe_get arr t + c)
          | Binop (Add, Var v', Var s)
            when st.fast && v' = v && (match lookup s with Int_slot _ -> true | _ -> false) ->
              let sarr = match lookup s with Int_slot i -> st.iregs.(i) | _ -> assert false in
              fun t -> Array.unsafe_set arr t (Array.unsafe_get arr t + Array.unsafe_get sarr t)
          | _ ->
              let f = compile_int st lookup e in
              if st.fast then fun t -> Array.unsafe_set arr t (f t) else fun t -> arr.(t) <- f t)
      | Float_slot slot ->
          let flops = float_of_int (float_flops lookup e) in
          let arr = st.fregs.(slot) in
          if st.fast then begin
            (* fast mode: count the statement's global reads statically
               and bump the byte counter once per execution instead of
               once per read (the per-read order is only observable on an
               aborting launch, whose stats are unspecified); flops go to
               the unboxed [flacc] accumulator, folded into [stats.flops]
               at block exit *)
            let sreads = static_read_count lookup e in
            let rb = match sreads with Some k -> 8 * k | None -> 0 in
            let f = acompile_float ~count:(sreads = None) st lookup e in
            let acc = st.acc and fl = st.flacc in
            if rb = 0 && flops = 0.0 then
              fun t ->
                f t;
                Array.unsafe_set arr t acc.v
            else if rb = 0 then
              fun t ->
                f t;
                Array.unsafe_set arr t acc.v;
                fl.v <- fl.v +. flops
            else if flops = 0.0 then
              fun t ->
                f t;
                Array.unsafe_set arr t acc.v;
                stats.global_read_bytes <- stats.global_read_bytes + rb
            else
              fun t ->
                f t;
                Array.unsafe_set arr t acc.v;
                stats.global_read_bytes <- stats.global_read_bytes + rb;
                fl.v <- fl.v +. flops
          end
          else
            let f = compile_float st lookup e in
            if flops = 0.0 then fun t -> arr.(t) <- f t
            else
              fun t ->
                arr.(t) <- f t;
                stats.flops <- stats.flops +. flops
      | _ -> err st (Printf.sprintf "assignment to non-scalar %s" v))
  | Assign (Lindex (a, idxs), e) -> (
      match lookup a with
      | Global data when st.fast -> (
          let single =
            match idxs with
            | [ i ] -> i
            | _ -> err st (Printf.sprintf "global array %s must use a single linearized index" a)
          in
          let sreads = static_read_count lookup e in
          let rb = match sreads with Some k -> 8 * k | None -> 0 in
          let rhs = acompile_float ~count:(sreads = None) st lookup e in
          let flops = float_of_int (float_flops lookup e) in
          let n = A1.dim data in
          let oob i =
            err st (Printf.sprintf "global array %s index %d out of bounds [0,%d)" a i n)
          in
          let acc = st.acc and fl = st.flacc in
          let slot v = match lookup v with Int_slot s -> Some st.iregs.(s) | _ -> None in
          let fused =
            match single with
            | Var v -> Option.map (fun arr -> (arr, 0)) (slot v)
            | Binop (Add, Var v, Int_lit c) | Binop (Add, Int_lit c, Var v) ->
                Option.map (fun arr -> (arr, c)) (slot v)
            | Binop (Sub, Var v, Int_lit c) -> Option.map (fun arr -> (arr, -c)) (slot v)
            | _ -> None
          in
          match fused with
          | Some (arr, off) when rb = 0 ->
              fun t ->
                let i = Array.unsafe_get arr t + off in
                if i < 0 || i >= n then oob i
                else begin
                  rhs t;
                  A1.unsafe_set data i acc.v;
                  stats.global_write_bytes <- stats.global_write_bytes + 8;
                  fl.v <- fl.v +. flops
                end
          | Some (arr, off) ->
              fun t ->
                let i = Array.unsafe_get arr t + off in
                if i < 0 || i >= n then oob i
                else begin
                  rhs t;
                  A1.unsafe_set data i acc.v;
                  stats.global_read_bytes <- stats.global_read_bytes + rb;
                  stats.global_write_bytes <- stats.global_write_bytes + 8;
                  fl.v <- fl.v +. flops
                end
          | None ->
              let idx = compile_int st lookup single in
              fun t ->
                let i = idx t in
                if i < 0 || i >= n then oob i
                else begin
                  rhs t;
                  A1.unsafe_set data i acc.v;
                  stats.global_read_bytes <- stats.global_read_bytes + rb;
                  stats.global_write_bytes <- stats.global_write_bytes + 8;
                  fl.v <- fl.v +. flops
                end)
      | Global data ->
          let single =
            match idxs with
            | [ i ] -> i
            | _ -> err st (Printf.sprintf "global array %s must use a single linearized index" a)
          in
          let rhs = compile_float st lookup e in
          let flops = float_of_int (float_flops lookup e) in
          let n = A1.dim data in
          let idx = compile_int st lookup single in
          fun t ->
            let i = idx t in
            if i < 0 || i >= n then
              err st (Printf.sprintf "global array %s index %d out of bounds [0,%d)" a i n)
            else begin
              (match !access_trace with Some f -> f ~write:true a i | None -> ());
              A1.unsafe_set data i (rhs t);
              stats.global_write_bytes <- stats.global_write_bytes + 8;
              stats.flops <- stats.flops +. flops
            end
      | Shared (slot, dims) ->
          let idx_fns = List.map (compile_int st lookup) idxs in
          let flops = float_of_int (float_flops lookup e) in
          if st.fast then
            let rhs = acompile_float st lookup e in
            let acc = st.acc and fl = st.flacc in
            fun t ->
              let addr = shared_addr st dims idx_fns a t in
              rhs t;
              st.shmem.(slot).(addr) <- acc.v;
              fl.v <- fl.v +. flops
          else
            let rhs = compile_float st lookup e in
            fun t ->
              let addr = shared_addr st dims idx_fns a t in
              st.shmem.(slot).(addr) <- rhs t;
              stats.flops <- stats.flops +. flops
      | _ -> err st (Printf.sprintf "%s is not an array" a))
  | If (c, tb, eb) ->
      let fc = compile_cond st lookup c in
      let ft = compile_thread_fn st lookup tb and fe = compile_thread_fn st lookup eb in
      fun t -> if fc t <> 0 then ft t else fe t
  | For l -> (
      match lookup l.index with
      | Int_slot slot ->
          let flo = compile_int st lookup l.lo and fhi = compile_int st lookup l.hi in
          let arr = st.iregs.(slot) in
          let step = l.step in
          if st.fast && not (stmts_read_var l.index l.body) then begin
            (* the body never reads the loop variable (the affine pass
               replaced every use): keep it in the local ref and publish
               only the final value, which is all later statements can
               observe *)
            (* split the trailing run of induction increments
               (v = v + c, v = v + stride — the shape the affine pass
               appends) off the body and drive them from parallel arrays:
               the hot loop then pays one indirect call per iteration
               instead of one per increment *)
            let inc_of s =
              match s with
              | Assign (Lvar v, Binop (Add, Var v', addend)) when v = v' -> (
                  match lookup v with
                  | Int_slot sl -> (
                      let nthreads = Array.length arr in
                      match addend with
                      | Int_lit c -> Some (st.iregs.(sl), Array.make nthreads c)
                      | Var sv -> (
                          match lookup sv with
                          | Int_slot ss -> Some (st.iregs.(sl), st.iregs.(ss))
                          | Const_int c -> Some (st.iregs.(sl), Array.make nthreads c)
                          | _ -> None)
                      | _ -> None)
                  | _ -> None)
              | _ -> None
            in
            let rec take_incs rev acc =
              match rev with
              | s :: rest -> (
                  match inc_of s with
                  | Some i -> take_incs rest (i :: acc)
                  | None -> (List.rev rev, acc))
              | [] -> ([], acc)
            in
            let prefix, incs = take_incs (List.rev l.body) [] in
            if List.length incs >= 2 then begin
              let body = compile_thread_fn st lookup prefix in
              let tgt = Array.of_list (List.map fst incs) in
              let adds = Array.of_list (List.map snd incs) in
              let k = Array.length tgt in
              fun t ->
                let hi = fhi t in
                let i = ref (flo t) in
                Array.unsafe_set arr t !i;
                while !i < hi do
                  body t;
                  for j = 0 to k - 1 do
                    let a = Array.unsafe_get tgt j in
                    Array.unsafe_set a t
                      (Array.unsafe_get a t
                      + Array.unsafe_get (Array.unsafe_get adds j) t)
                  done;
                  i := !i + step
                done;
                Array.unsafe_set arr t !i
            end
            else
              let body = compile_thread_fn st lookup l.body in
              fun t ->
                let hi = fhi t in
                let i = ref (flo t) in
                Array.unsafe_set arr t !i;
                while !i < hi do
                  body t;
                  i := !i + step
                done;
                Array.unsafe_set arr t !i
          end
          else
            let body = compile_thread_fn st lookup l.body in
            fun t ->
              let hi = fhi t in
              let i = ref (flo t) in
              arr.(t) <- !i;
              while !i < hi do
                body t;
                i := !i + step;
                arr.(t) <- !i
              done
      | _ -> err st (Printf.sprintf "loop index %s is not an int slot" l.index))
  | Return -> fun t -> st.alive.(t) <- false; raise Thread_exit
  | Shared_decl _ -> fun _ -> ()
  | Syncthreads -> err st "internal: __syncthreads inside a per-thread region"

let rec compile_stmt st lookup s : cstmt =
  if not (has_sync [ s ]) then
    match s with
    | If (c, tb, eb) when st.fast && pure_int_cond lookup c ->
        GLeaf
          ( compile_cond st lookup c,
            compile_thread_fn st lookup tb,
            compile_thread_fn st lookup eb )
    | _ ->
        let cond =
          match s with If (c, _, _) -> Some (compile_cond st lookup c) | _ -> None
        in
        Leaf { fn = compile_thread_stmt st lookup s; cond }
  else
    match s with
    | Syncthreads -> CSync
    | If (c, tb, eb) ->
        CIf (compile_cond st lookup c, compile_stmts st lookup tb, compile_stmts st lookup eb)
    | For l -> (
        match lookup l.index with
        | Int_slot slot ->
            let arr = st.iregs.(slot) in
            CFor
              {
                set = (fun t v -> arr.(t) <- v);
                get_lo = compile_int st lookup l.lo;
                get_hi = compile_int st lookup l.hi;
                step = l.step;
                body = compile_stmts st lookup l.body;
              }
        | _ -> err st (Printf.sprintf "loop index %s is not an int slot" l.index))
    | _ -> err st "internal: unexpected sync-carrying statement"

and compile_stmts st lookup stmts = List.map (compile_stmt st lookup) stmts

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let record_divergence st cond =
  let stats = st.stats in
  let n = st.nthreads in
  let warp_count = (n + 31) / 32 in
  for w = 0 to warp_count - 1 do
    let ones = ref 0 and zeros = ref 0 in
    for t = w * 32 to min n ((w + 1) * 32) - 1 do
      if st.alive.(t) then if cond t <> 0 then incr ones else incr zeros
    done;
    if !ones + !zeros > 0 then begin
      stats.warp_cond_evals <- stats.warp_cond_evals + 1;
      if !ones > 0 && !zeros > 0 then
        stats.divergent_warp_cond_evals <- stats.divergent_warp_cond_evals + 1
    end
  done

let first_alive st =
  let rec go t = if t >= st.nthreads then None else if st.alive.(t) then Some t else go (t + 1) in
  go 0

let rec exec_lockstep st cstmts = List.iter (exec_cstmt st) cstmts

and exec_cstmt st c =
  match c with
  | CSync ->
      (* lockstep execution already finished every thread's preceding
         statement; shared-memory races are Kft_verify's to prove *)
      ()
  | Leaf { fn; cond } ->
      (match cond with Some f -> record_divergence st f | None -> ());
      if st.has_return then
        for t = 0 to st.nthreads - 1 do
          if st.alive.(t) then try fn t with Thread_exit -> ()
        done
      else
        (* no [return] in the kernel: alive never changes and Thread_exit
           cannot be raised, so run the tight loop *)
        for t = 0 to st.nthreads - 1 do
          fn t
        done
  | GLeaf (cond, ft, fe) ->
      (* one condition evaluation per thread feeds both the warp
         accounting and the branch dispatch; totals match the Leaf path
         (divergence pass then execution) because the condition is pure *)
      let stats = st.stats in
      let n = st.nthreads in
      let warp_count = (n + 31) / 32 in
      for w = 0 to warp_count - 1 do
        let ones = ref 0 and zeros = ref 0 in
        if st.has_return then
          for t = w * 32 to min n ((w + 1) * 32) - 1 do
            if st.alive.(t) then begin
              let c = cond t <> 0 in
              if c then incr ones else incr zeros;
              try if c then ft t else fe t with Thread_exit -> ()
            end
          done
        else
          for t = w * 32 to min n ((w + 1) * 32) - 1 do
            let c = cond t <> 0 in
            if c then incr ones else incr zeros;
            if c then ft t else fe t
          done;
        if !ones + !zeros > 0 then begin
          stats.warp_cond_evals <- stats.warp_cond_evals + 1;
          if !ones > 0 && !zeros > 0 then
            stats.divergent_warp_cond_evals <- stats.divergent_warp_cond_evals + 1
        end
      done
  | CIf (cond, tb, eb) -> (
      match first_alive st with
      | None -> ()
      | Some t0 ->
          let v0 = cond t0 <> 0 in
          for t = 0 to st.nthreads - 1 do
            if st.alive.(t) && cond t <> 0 <> v0 then
              err st "barrier divergence: non-uniform condition guards a __syncthreads region"
          done;
          exec_lockstep st (if v0 then tb else eb))
  | CFor { set; get_lo; get_hi; step; body } -> (
      match first_alive st with
      | None -> ()
      | Some t0 ->
          let lo = get_lo t0 and hi = get_hi t0 in
          for t = 0 to st.nthreads - 1 do
            if st.alive.(t) && (get_lo t <> lo || get_hi t <> hi) then
              err st "barrier divergence: non-uniform loop bounds around a __syncthreads region"
          done;
          let v = ref lo in
          while !v < hi do
            for t = 0 to st.nthreads - 1 do
              if st.alive.(t) then set t !v
            done;
            exec_lockstep st body;
            v := !v + step
          done)

(* ------------------------------------------------------------------ *)
(* Launch                                                              *)
(* ------------------------------------------------------------------ *)

let collect_scalar_slots kernel_name body params =
  (* name -> ety, slot index; loop indices and decls *)
  let table : (string, binding) Hashtbl.t = Hashtbl.create 32 in
  let int_slots = ref 0 and float_slots = ref 0 in
  let add_var name ety =
    match Hashtbl.find_opt table name with
    | Some (Int_slot _) when ety = EInt -> ()
    | Some (Float_slot _) when ety = EFloat -> ()
    | Some _ ->
        raise
          (Sim_error
             {
               kernel = kernel_name;
               message = Printf.sprintf "variable %s redeclared with a different type" name;
             })
    | None ->
        let b =
          match ety with
          | EInt ->
              incr int_slots;
              Int_slot (!int_slots - 1)
          | EFloat ->
              incr float_slots;
              Float_slot (!float_slots - 1)
        in
        Hashtbl.replace table name b
  in
  ignore params;
  let shared_slots = ref [] in
  let rec walk stmts =
    List.iter
      (fun s ->
        match s with
        | Decl (Int, v, _) | Decl (Bool, v, _) -> add_var v EInt
        | Decl (Double, v, _) -> add_var v EFloat
        | Shared_decl (_, n, dims) ->
            if not (List.mem_assoc n !shared_slots) then
              shared_slots := !shared_slots @ [ (n, dims) ]
        | For l ->
            add_var l.index EInt;
            walk l.body
        | If (_, t, e) ->
            walk t;
            walk e
        | Assign _ | Syncthreads | Return -> ())
      stmts
  in
  walk body;
  (table, !int_slots, !float_slots, !shared_slots)

(* ------------------------------------------------------------------ *)
(* Execution backends                                                  *)
(* ------------------------------------------------------------------ *)

(* Two execution paths: the reference interpreter ([fast = false], no
   rewriting) and the compiled lockstep path with affine strength
   reduction. [Auto] and [Vector] are accepted aliases of [Affine]: CLI
   values and recorded benchmark metric keys still name them. *)
type backend = Auto | Interpret | Affine | Vector

let backend_name = function
  | Auto -> "auto"
  | Interpret -> "interp"
  | Affine -> "affine"
  | Vector -> "vector"

(* ------------------------------------------------------------------ *)
(* Block-range chunking policy                                         *)
(* ------------------------------------------------------------------ *)

(* test hook: force a chunk count so the chunk-merge path can be
   exercised deterministically even on a single-core host (where the
   adaptive policy below always picks 1) *)
let chunk_override : int option ref = ref None

(* Each chunk recompiles the kernel against its own register state,
   so chunking only pays off when there are real worker domains and
   enough blocks per chunk to amortize the per-chunk compilation: small
   launches (blocks < ~4 x workers) and single-worker pools stay
   sequential — paying pool coordination with zero usable parallelism is
   exactly the Fluam block-parallel regression. Splitting scales with the
   domains actually spawned, not the requested width. *)
let chunks_for ~jobs ~workers ~blocks =
  match !chunk_override with
  | Some n -> max 1 (min n (max 1 blocks))
  | None ->
      if jobs <= 1 || workers <= 1 || blocks < 4 * workers then 1
      else min (workers * 2) (blocks / 4)

(* Blocks are independent in the executed subset (no inter-block sync or
   atomics; kft_verify additionally proves per-thread write disjointness
   for verified kernels), so the grid loop fans out over the engine's
   domain pool in contiguous chunks of the linearized block range. Each
   chunk counts into its own [stats] and the chunks are summed in chunk
   order. Every counter is an int, and every flop addend is
   [float_of_int] of a static count, so each partial sum is an exactly
   represented integer: the total does not depend on the chunking, and
   stats and memory are bit-identical at any jobs setting. Kernels with
   cross-block write overlap are undefined behaviour in CUDA itself; for
   those the sequential path keeps the last-writer-in-block-order result
   while parallel chunks may differ. *)
let launch ?engine ?(backend = Affine) ?trace mem prog (l : launch) =
  Trace.with_span trace ("launch:" ^ l.l_kernel) @@ fun () ->
  let affine = backend <> Interpret in
  let kernel = find_kernel prog l.l_kernel in
  let bound = bind_args kernel l.l_args in
  let bx, by, bz = l.l_block in
  let gx, gy, gz = grid_of_launch l in
  let nthreads = bx * by * bz in
  if nthreads <= 0 then raise (Sim_error { kernel = l.l_kernel; message = "empty thread block" });
  (* substitute blockDim/gridDim by constants, then strength-reduce the
     affine index expressions, before slot collection and compilation *)
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
  let body = if affine then Affine.rewrite_stmts body else body in
  let table, n_int, n_float, shared_decls =
    collect_scalar_slots kernel.k_name body kernel.k_params
  in
  (* parameters become constants / array bindings *)
  List.iter
    (fun (p, a) ->
      let b =
        match (p, a) with
        | _, Arg_array host -> (
            match Memory.get mem host with
            | data -> Global data
            | exception Memory.Unknown_array name ->
                raise
                  (Sim_error
                     { kernel = kernel.k_name; message = "unknown device array " ^ name }))
        | _, Arg_int i -> Const_int i
        | _, Arg_double f -> Const_float f
      in
      Hashtbl.replace table p b)
    bound;
  List.iteri
    (fun i (n, dims) -> Hashtbl.replace table n (Shared (i, dims)))
    shared_decls;
  let shared_bytes =
    List.fold_left (fun acc (_, dims) -> acc + (8 * List.fold_left ( * ) 1 dims)) 0 shared_decls
  in
  let blocks = gx * gy * gz in
  let has_return = fold_stmts (fun acc s -> acc || s = Return) false body in
  let txs = Array.init nthreads (fun t -> t mod bx)
  and tys = Array.init nthreads (fun t -> t / bx mod by)
  and tzs = Array.init nthreads (fun t -> t / (bx * by)) in
  (* Each chunk compiles against its own state (closures capture the
     register files), walks its contiguous block range and returns its
     own counters. [table] and [body] are shared read-only. *)
  let run_chunk (b_lo, b_hi) =
    let st =
      {
        kernel_name = kernel.k_name;
        bx; by; bz;
        nthreads;
        txs; tys; tzs;
        bix = 0; biy = 0; biz = 0;
        iregs = Array.init n_int (fun _ -> Array.make nthreads 0);
        fregs = Array.init n_float (fun _ -> Array.make nthreads 0.0);
        shmem = Array.of_list (List.map (fun (_, d) -> Array.make (List.fold_left ( * ) 1 d) 0.0) shared_decls);
        alive = Array.make nthreads true;
        stats = zero_stats ~shared_bytes_per_block:shared_bytes ~blocks_launched:1;
        has_return;
        fast = affine;
        acc = { v = 0.0 };
        flacc = { v = 0.0 };
      }
    in
    let lookup v =
      match Hashtbl.find_opt table v with
      | Some b -> b
      | None -> err st (Printf.sprintf "unbound identifier %s" v)
    in
    let compiled = compile_stmts st lookup body in
    let stats = st.stats in
    for b = b_lo to b_hi do
      st.bix <- b mod gx;
      st.biy <- b / gx mod gy;
      st.biz <- b / (gx * gy);
      if has_return then Array.fill st.alive 0 nthreads true;
      Array.iter (fun a -> Array.fill a 0 (Array.length a) 0.0) st.shmem;
      exec_lockstep st compiled;
      Array.iter (fun alive -> if alive then stats.threads_active <- stats.threads_active + 1) st.alive
    done;
    (* the fast path counts flops in the unboxed [flacc] only *)
    if st.fast then stats.flops <- st.flacc.v;
    stats
  in
  let jobs = match engine with Some e -> Engine.jobs e | None -> 1 in
  let workers = match engine with Some e -> Engine.workers e | None -> 1 in
  (* adaptive serial fallback (see [chunks_for]): launches smaller
     than ~4 blocks per worker, or pools with a single worker domain,
     pay chunked recompilation and pool coordination without usable
     parallelism — those run sequentially *)
  let nchunks = chunks_for ~jobs ~workers ~blocks in
  let ranges =
    List.init nchunks (fun c ->
        (c * blocks / nchunks, ((c + 1) * blocks / nchunks) - 1))
  in
  let chunk_stats =
    match engine with
    | Some e when nchunks > 1 -> Engine.map e run_chunk ranges
    | _ -> List.map run_chunk ranges
  in
  (* exact sums (see above), taken in chunk order *)
  let stats = zero_stats ~shared_bytes_per_block:shared_bytes ~blocks_launched:blocks in
  stats.threads_launched <- nthreads * blocks;
  List.iter
    (fun b ->
      stats.global_read_bytes <- stats.global_read_bytes + b.global_read_bytes;
      stats.global_write_bytes <- stats.global_write_bytes + b.global_write_bytes;
      stats.flops <- stats.flops +. b.flops;
      stats.warp_cond_evals <- stats.warp_cond_evals + b.warp_cond_evals;
      stats.divergent_warp_cond_evals <-
        stats.divergent_warp_cond_evals + b.divergent_warp_cond_evals;
      stats.threads_active <- stats.threads_active + b.threads_active)
    chunk_stats;
  (* per-launch trace record: block/byte totals are pure functions of the
     launch (canonical channel); the chunk split varies with the worker
     count and stays in the side channel *)
  Trace.add trace "blocks" blocks;
  Trace.add trace "threads" stats.threads_launched;
  Trace.add trace "read_bytes" stats.global_read_bytes;
  Trace.add trace "write_bytes" stats.global_write_bytes;
  Trace.set trace "backend" (Trace.Str (if affine then "affine" else "interp"));
  Trace.note trace "chunks" (Trace.Int nchunks);
  stats

let run_schedule ?engine ?backend ?trace mem prog =
  List.filter_map
    (function
      | Launch l -> Some (l, launch ?engine ?backend ?trace mem prog l)
      | Copy_to_device _ | Copy_to_host _ -> None)
    prog.p_schedule
