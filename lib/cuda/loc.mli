(** Source positions for the CUDA subset frontend.

    Positions are produced by {!Lexer.tokenize} and attached to
    statements by {!Parse} through a side table keyed on the physical
    identity of the statement value.  The AST itself stays free of
    location fields, so structural transformations ({!Ast.map_stmts},
    codegen, fusion) keep working unchanged; a rewritten statement
    simply has no recorded position.

    Constant constructors ([Syncthreads], [Return]) share one physical
    value, so the table never stores positions for them — clients that
    need to locate a barrier should report the position of the
    enclosing statement instead. *)

type pos = { line : int; col : int }
(** 1-based line and column. *)

val none : pos
(** [{ line = 0; col = 0 }] — used when no position is known. *)

val is_none : pos -> bool

val pp : pos -> string
(** ["LINE:COL"], or [""] for {!none}. *)

val record : Ast.stmt -> pos -> Ast.stmt
(** Remember [pos] for this exact (physically identical) statement
    value and return the statement.  Constant constructors are
    ignored. *)

val find : Ast.stmt -> pos
(** Position recorded for this statement, or {!none}. *)
