type scalar_ty = Int | Double | Bool

type dim = X | Y | Z

type builtin_var = Thread_idx of dim | Block_idx of dim | Block_dim of dim | Grid_dim of dim

type binop =
  | Add | Sub | Mul | Div | Mod
  | Lt | Le | Gt | Ge | Eq | Ne
  | And | Or

type unop = Neg | Not

type expr =
  | Int_lit of int
  | Double_lit of float
  | Var of string
  | Builtin of builtin_var
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Index of string * expr list
  | Call of string * expr list
  | Ternary of expr * expr * expr

type lvalue = Lvar of string | Lindex of string * expr list

type stmt =
  | Decl of scalar_ty * string * expr option
  | Shared_decl of scalar_ty * string * int list
  | Assign of lvalue * expr
  | If of expr * stmt list * stmt list
  | For of for_loop
  | Syncthreads
  | Return

and for_loop = {
  index : string;
  lo : expr;
  hi : expr;
  step : int;
  body : stmt list;
}

type qualifier = Const | Restrict

type param =
  | Array_param of { name : string; elem_ty : scalar_ty; quals : qualifier list }
  | Scalar_param of { name : string; ty : scalar_ty }

type kernel = { k_name : string; k_params : param list; k_body : stmt list }

type array_decl = { a_name : string; a_elem_ty : scalar_ty; a_dims : int list }

type arg =
  | Arg_array of string
  | Arg_int of int
  | Arg_double of float

type launch = {
  l_kernel : string;
  l_domain : int * int * int;
  l_block : int * int * int;
  l_args : arg list;
}

type host_op = Launch of launch | Copy_to_device of string | Copy_to_host of string

type program = {
  p_name : string;
  p_arrays : array_decl list;
  p_kernels : kernel list;
  p_schedule : host_op list;
}

let cdiv a b = (a + b - 1) / b

let grid_of_launch l =
  let dx, dy, dz = l.l_domain and bx, by, bz = l.l_block in
  (cdiv dx bx, cdiv dy by, cdiv dz bz)

let find_kernel p name = List.find (fun k -> k.k_name = name) p.p_kernels

let find_array p name = List.find (fun a -> a.a_name = name) p.p_arrays

let array_cells a = List.fold_left ( * ) 1 a.a_dims

let param_name = function
  | Array_param { name; _ } -> name
  | Scalar_param { name; _ } -> name

let bind_args k args =
  if List.length k.k_params <> List.length args then
    invalid_arg
      (Printf.sprintf "bind_args: kernel %s expects %d args, got %d" k.k_name
         (List.length k.k_params) (List.length args));
  List.map2 (fun p a -> (param_name p, a)) k.k_params args

let rec map_expr f e =
  let e' =
    match e with
    | Int_lit _ | Double_lit _ | Var _ | Builtin _ -> e
    | Binop (op, a, b) -> Binop (op, map_expr f a, map_expr f b)
    | Unop (op, a) -> Unop (op, map_expr f a)
    | Index (a, idxs) -> Index (a, List.map (map_expr f) idxs)
    | Call (fn, args) -> Call (fn, List.map (map_expr f) args)
    | Ternary (c, a, b) -> Ternary (map_expr f c, map_expr f a, map_expr f b)
  in
  f e'

let rec fold_expr f acc e =
  let acc = f acc e in
  match e with
  | Int_lit _ | Double_lit _ | Var _ | Builtin _ -> acc
  | Binop (_, a, b) -> fold_expr f (fold_expr f acc a) b
  | Unop (_, a) -> fold_expr f acc a
  | Index (_, idxs) | Call (_, idxs) -> List.fold_left (fold_expr f) acc idxs
  | Ternary (c, a, b) -> fold_expr f (fold_expr f (fold_expr f acc c) a) b

let rec map_stmt f s =
  let s' =
    match s with
    | Decl _ | Shared_decl _ | Assign _ | Syncthreads | Return -> s
    | If (c, t, e) -> If (c, map_stmts f t, map_stmts f e)
    | For l -> For { l with body = map_stmts f l.body }
  in
  f s'

and map_stmts f stmts = List.map (map_stmt f) stmts

let rec fold_stmt f acc s =
  let acc = f acc s in
  match s with
  | Decl _ | Shared_decl _ | Assign _ | Syncthreads | Return -> acc
  | If (_, t, e) -> fold_stmts f (fold_stmts f acc t) e
  | For l -> fold_stmts f acc l.body

and fold_stmts f acc stmts = List.fold_left (fold_stmt f) acc stmts

let map_exprs_in_stmts f stmts =
  let fe = map_expr f in
  let on_stmt = function
    | Decl (ty, n, init) -> Decl (ty, n, Option.map fe init)
    | Assign (Lvar v, e) -> Assign (Lvar v, fe e)
    | Assign (Lindex (a, idxs), e) -> Assign (Lindex (a, List.map fe idxs), fe e)
    | If (c, t, e) -> If (fe c, t, e)
    | For l -> For { l with lo = fe l.lo; hi = fe l.hi }
    | (Shared_decl _ | Syncthreads | Return) as s -> s
  in
  map_stmts on_stmt stmts

let fold_exprs_in_stmts f acc stmts =
  fold_stmts
    (fun acc s ->
      match s with
      | Decl (_, _, Some e) -> f acc e
      | Decl (_, _, None) -> acc
      | Assign (Lvar _, e) -> f acc e
      | Assign (Lindex (_, idxs), e) -> f (List.fold_left f acc idxs) e
      | If (c, _, _) -> f acc c
      | For l -> f (f acc l.lo) l.hi
      | Shared_decl _ | Syncthreads | Return -> acc)
    acc stmts

let rename_var ~old ~fresh stmts =
  let fix_expr = map_expr (function Var v when v = old -> Var fresh | e -> e) in
  let on_stmt = function
    | Decl (ty, n, init) when n = old -> Decl (ty, fresh, init)
    | Assign (Lvar v, e) when v = old -> Assign (Lvar fresh, e)
    | For l when l.index = old -> For { l with index = fresh }
    | s -> s
  in
  map_stmts on_stmt (map_exprs_in_stmts (fun e -> fix_expr e) stmts)

let rename_array ~old ~fresh stmts =
  let fix = map_expr (function Index (a, idxs) when a = old -> Index (fresh, idxs) | e -> e) in
  let on_stmt = function
    | Assign (Lindex (a, idxs), e) when a = old -> Assign (Lindex (fresh, idxs), e)
    | Shared_decl (ty, n, dims) when n = old -> Shared_decl (ty, fresh, dims)
    | s -> s
  in
  map_stmts on_stmt (map_exprs_in_stmts (fun e -> fix e) stmts)

let dedup_keep_order names =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun n ->
      if Hashtbl.mem seen n then false
      else begin
        Hashtbl.replace seen n ();
        true
      end)
    names

let arrays_read stmts =
  let reads_of_expr acc e =
    fold_expr (fun acc e -> match e with Index (a, _) -> a :: acc | _ -> acc) acc e
  in
  fold_exprs_in_stmts reads_of_expr [] stmts |> List.rev |> dedup_keep_order

let arrays_written stmts =
  fold_stmts
    (fun acc s -> match s with Assign (Lindex (a, _), _) -> a :: acc | _ -> acc)
    [] stmts
  |> List.rev |> dedup_keep_order

let referenced_arrays k =
  let array_params =
    List.filter_map (function Array_param { name; _ } -> Some name | Scalar_param _ -> None) k.k_params
  in
  let used = dedup_keep_order (arrays_read k.k_body @ arrays_written k.k_body) in
  List.filter (fun a -> List.mem a used) array_params

let equal_expr (a : expr) (b : expr) = a = b

let equal_kernel (a : kernel) (b : kernel) = a = b
