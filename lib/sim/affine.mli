(** Affine index precomputation (strength reduction) for the simulator's
    hot path.

    Every stencil kernel spends its inner (vertical) loop re-evaluating
    full linearized index expressions like [(k*ny + j)*nx + i] for each
    array access on each iteration. For a loop [for (v = lo; v < hi;
    v += step)] this pass rewrites each single-index access whose index
    is affine in [v] — [index = core + v*stride + offset] with [core],
    [stride] invariant in the loop body — into a reference to a fresh
    induction variable:

    {v
    int __affN_s = step * stride;      // hoisted, once per (block, thread)
    int __affN   = core + lo * stride;
    for (v = lo; v < hi; v += step) {
      ... A[__affN + offset] ...       // one offset per neighbour
      __affN = __affN + __affN_s;
    }
    v}

    Accesses sharing [(core, stride)] (e.g. the [+1]/[-1] stencil
    neighbours) share one induction variable and differ only in their
    constant [offset]. Loop-invariant indexes ([stride = 0]) are hoisted
    with no increment.

    The rewrite is applied innermost-loop first and is semantics- and
    stats-preserving: hoisted expressions are restricted to pure, total
    integer [+ - *] over scalars not assigned in the loop body (no
    division, calls, or array reads may be moved), accesses keep their
    order, addresses and bounds checks, and the introduced statements
    are integer-typed so flop and divergence counters are untouched.
    {!Interp} applies it internally (after blockDim/gridDim constant
    substitution) on every backend but [Interpret]. *)

val rewrite_stmts : Kft_cuda.Ast.stmt list -> Kft_cuda.Ast.stmt list
(** Rewrite a kernel body. Fresh names use the reserved [__aff] prefix. *)

val rewrite_kernel : Kft_cuda.Ast.kernel -> Kft_cuda.Ast.kernel
(** {!rewrite_stmts} on the kernel's body. *)
