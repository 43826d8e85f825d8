type pos = { line : int; col : int }

let none = { line = 0; col = 0 }
let is_none p = p.line = 0
let pp p = if is_none p then "" else Printf.sprintf "%d:%d" p.line p.col

(* Side table keyed on the physical identity of statement values.
   Buckets come from the structural hash (cheap, depth-bounded); matches
   require pointer equality, so two structurally equal statements from
   different parses keep distinct positions.  Constant constructors
   (Syncthreads, Return) are immediates shared by every occurrence and
   are never stored. *)
module Tbl = Hashtbl.Make (struct
  type t = Ast.stmt

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let table : pos Tbl.t = Tbl.create 1024
let is_immediate (s : Ast.stmt) = Obj.is_int (Obj.repr s)

let record s p =
  if not (is_immediate s) then Tbl.replace table s p;
  s

let find s = if is_immediate s then none else try Tbl.find table s with Not_found -> none
