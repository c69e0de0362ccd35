"""Linear programs as sparse arrays, and the builders for every program the
solver needs.

A program is what HiGHS reads: min or max c @ x subject to
row_lo <= A @ x <= row_hi and lb <= x <= ub, with one CSR matrix A that
stores no zeros and keeps every row as written (see `LinearProgram`).
Columns and rows have no names: a program is read by position, in the
order its builder's docstring gives. A is a `CsrMatrix`, the numpy
triple (indptr, indices, data) HiGHS loads row-wise, with its shape. The
builders assemble it with numpy from the instance's kernel, pair layout
and reward table `reward_atoms`: from triplets (`_matrix`), from a dense block
(`_dense`), and by stacking row blocks (`_stack`). No sparse-matrix
library is imported, so solving loads none.

Every solve runs through one class, `Sweep`: one HiGHS simplex model of
a program (basic solutions, deterministic for identical input), solved
under one cost after another, each handed to it when the caller has seen
the points before. It returns only optimal points that pass a re-check
against the row and column bounds, each with its shadow prices; any other
outcome, an infeasible or unbounded program among them, raises
`LpSolveError`. `solve` is a sweep's one cost, the program's own, and
`solve_sweep` a sweep over a list of costs. A sweep backs the endpoint
scan, whose average programs differ only in their costs: its K grid
points and the bracket points it picks from them. A first cost pivots in
the program's own direction (`LinearProgram.simplex`), set by its
builder: `build_level_lp`, which dualises the occupation polytope, pivots
primal, because dual simplex takes thousands of iterations on it where
primal takes hundreds; every other program pivots dual, the faster
direction on the occupation programs from a cold start. Every later cost
of a sweep pivots primal from the previous optimal basis, which a change
of costs alone leaves primal feasible.
`Variable` and `Constraint` are a row-by-row view: `LinearProgram.from_rows`
builds a hand-written program from named ones, and `variables`,
`constraints` and `objective` give any program back in that form, its
columns and rows named by their positions; solving never builds it.
HiGHS is scipy's `_highspy._core` extension, loaded by file path
(`_load_highs`) so that importing this module does not run
`scipy.optimize`'s package init.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

import numpy as np
import scipy

from .risk import atom_sums, breakpoints, saddle_coefficient_rows, saddle_coefficients

_HIGHS_NAME = "scipy.optimize._highspy._core"


def _load_highs(directory=None):
    """scipy's HiGHS extension module, without running scipy.optimize's
    package init, which costs far more than the extension itself.

    The `_core` file in directory (scipy/optimize/_highspy by default) is
    loaded under its real name and registered in sys.modules before its
    exec step (where it registers its types) runs, so a later
    `import scipy.optimize` reuses this module object and does not register
    the types a second time. A module already in sys.modules is returned as
    it is; with no `_core` file the normal import runs.
    """
    if _HIGHS_NAME in sys.modules:
        return sys.modules[_HIGHS_NAME]
    if directory is None:
        directory = Path(scipy.__file__).parent / "optimize" / "_highspy"
    for suffix in EXTENSION_SUFFIXES:
        path = Path(directory) / f"_core{suffix}"
        if path.is_file():
            loader = ExtensionFileLoader(_HIGHS_NAME, str(path))
            module = module_from_spec(spec_from_file_location(_HIGHS_NAME, path, loader=loader))
            sys.modules[_HIGHS_NAME] = module
            try:
                loader.exec_module(module)
            except BaseException:
                del sys.modules[_HIGHS_NAME]
                raise
            return module
    from scipy.optimize._highspy import _core
    return _core


highs = _load_highs()


def __getattr__(name):
    # Only perfbench/spans.py TARGETS and its test read this; the next benchmark change drops both.
    if name == "linprog":
        from scipy.optimize import linprog
        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


FEASIBILITY_TOL = 1e-8
# HiGHS's own primal tolerance (default 1e-7) sits below the re-check's, so
# the points it returns pass FEASIBILITY_TOL.
HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10}

RELATIONS = ("<=", "=", ">=")
SIMPLEX = {"dual": highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual,
           "primal": highs.simplex_constants.SimplexStrategy.kSimplexStrategyPrimal}


class LpSolveError(RuntimeError):
    """The backend failed numerically or returned an inconsistent answer."""


@dataclass(frozen=True)
class Variable:
    name: str
    lb: float = 0.0
    ub: float = np.inf


@dataclass(frozen=True)
class Constraint:
    name: str
    coeffs: dict
    relation: str
    rhs: float

    def __post_init__(self):
        if self.relation not in RELATIONS:
            raise ValueError(f"relation must be one of {RELATIONS}, got {self.relation!r}")


@dataclass(frozen=True)
class CsrMatrix:
    """A compressed sparse row matrix as numpy arrays: row i holds
    data[indptr[i]:indptr[i + 1]] in columns indices[indptr[i]:indptr[i + 1]].
    The builders store no zeros and sort each row's columns."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple

    @cached_property
    def rows(self):
        """The row of every stored entry; a sweep re-checks every point
        against the same matrix, so this is built once."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))


def _csr(shape, rows, cols, vals):
    """A `CsrMatrix` from entries already in (row, col) order."""
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return CsrMatrix(indptr, np.asarray(cols, dtype=np.int64), np.asarray(vals, dtype=float),
                     tuple(shape))


def _matrix(shape, rows, cols, vals):
    """CSR matrix from triplets; duplicates are summed in the order given and
    no zero is stored."""
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], np.asarray(vals, dtype=float)[order]
    new = np.ones(rows.size, dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    # one bin per distinct (row, col); a bincount adds its entries in order
    vals = np.bincount(np.cumsum(new) - 1, weights=vals, minlength=np.count_nonzero(new))
    keep = vals != 0.0
    return _csr(shape, rows[new][keep], cols[new][keep], vals[keep])


def _dense(a):
    """CSR matrix of a 2-D array's nonzero entries."""
    rows, cols = np.nonzero(a)
    return _csr(a.shape, rows, cols, a[rows, cols])


def _matvec(a, x):
    """a @ x for a `CsrMatrix` a. The bincount adds each row's products in
    stored order, as a CSR product does, so the two agree bit for bit."""
    return np.bincount(a.rows, weights=a.data * x[a.indices], minlength=a.shape[0])


@dataclass(frozen=True)
class LinearProgram:
    """min or max c @ x s.t. row_lo <= A @ x <= row_hi, lb <= x <= ub.

    A is a `CsrMatrix` with one row per row_lo entry, each row as
    written: an equality has row_lo == row_hi, a "<=" row row_lo = -inf
    and a ">=" row row_hi = +inf. A ranged row (both bounds finite and
    unequal) is refused, because `constraints` gives each row exactly one
    relation. simplex ("dual" or "primal") is the direction HiGHS pivots
    in, chosen by the program's builder.
    """

    name: str
    sense: str  # "min" or "max"
    c: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    A: CsrMatrix
    row_lo: np.ndarray
    row_hi: np.ndarray
    simplex: str = "dual"

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {self.sense!r}")
        if self.simplex not in SIMPLEX:
            raise ValueError(f"simplex must be one of {tuple(SIMPLEX)}, got {self.simplex!r}")
        ranged = np.flatnonzero(np.isfinite(self.row_lo) & np.isfinite(self.row_hi)
                                & (self.row_lo != self.row_hi))
        if ranged.size:
            i = ranged[0]
            raise ValueError(f"row {i} is ranged ({self.row_lo[i]:g} <= "
                             f"a x <= {self.row_hi[i]:g}); write it as two rows")

    @classmethod
    def from_rows(cls, name, sense, objective, variables, constraints):
        """A program from named `Variable`s, an objective {name: coef} and
        `Constraint`s: column j is variables[j] and row i constraints[i].
        The names only place the coefficients; none is stored."""
        col = {v.name: i for i, v in enumerate(variables)}
        if len(col) != len(variables) or len({c.name for c in constraints}) != len(constraints):
            raise ValueError("duplicate variable or constraint names")
        for label, coeffs in ([(f"constraint {c.name!r}", c.coeffs) for c in constraints]
                              + [("objective", objective)]):
            if set(coeffs) - set(col):
                raise ValueError(f"{label} references undeclared {sorted(set(coeffs) - set(col))}")
        n = len(variables)
        c = np.zeros(n)
        c[[col[nm] for nm in objective]] = list(objective.values())
        trip = [(i, col[nm], coef) for i, con in enumerate(constraints)
                for nm, coef in con.coeffs.items()]
        rows, cols, vals = zip(*trip) if trip else ((), (), ())
        return cls(name, sense, c, np.array([v.lb for v in variables], dtype=float),
                   np.array([v.ub for v in variables], dtype=float),
                   _matrix((len(constraints), n), rows, cols, vals),
                   np.array([-np.inf if con.relation == "<=" else con.rhs for con in constraints],
                            dtype=float),
                   np.array([np.inf if con.relation == ">=" else con.rhs for con in constraints],
                            dtype=float))

    # -- row-by-row view, built on demand: column j is named str(j), row i str(i)

    @property
    def variables(self):
        return tuple(map(Variable, map(str, range(self.c.size)), self.lb.tolist(),
                         self.ub.tolist()))

    @property
    def objective(self):
        return {str(j): float(self.c[j]) for j in np.flatnonzero(self.c)}

    @property
    def constraints(self):
        names = list(map(str, self.A.indices.tolist()))
        coeffs, ends = self.A.data.tolist(), self.A.indptr.tolist()
        out = []
        for i, (lo, hi) in enumerate(zip(self.row_lo.tolist(), self.row_hi.tolist())):
            relation, rhs = ("=", lo) if lo == hi else ("<=", hi) if lo == -np.inf else (">=", lo)
            start, stop = ends[i], ends[i + 1]
            out.append(Constraint(str(i), dict(zip(names[start:stop], coeffs[start:stop])),
                                  relation, rhs))
        return tuple(out)


@dataclass(frozen=True)
class LpSolution:
    """The optimal, re-checked point of one cost of a `Sweep` (of `solve`
    or `solve_sweep` among them); any other outcome raises.

    objective is the program's objective at x, recomputed in its own sense.
    x holds the point in the program's column order, and duals the shadow
    price of each row in row order, both as its builder documents: the rate
    at which the optimal objective, in the program's own sense, changes per
    unit increase of the row's right-hand side. So a binding "<=" row of a
    "max" program has a price >= 0 and a binding ">=" row one <= 0.
    residual (worst constraint or bound violation) and mismatch (|backend
    objective - recomputed objective|) are the re-check's figures; nit is
    HiGHS's iteration count.
    """

    # Always "optimal": solve raises on any other outcome; perfbench's
    # reference level LP still reads this name.
    status = "optimal"

    objective: float
    x: np.ndarray
    residual: float
    mismatch: float
    nit: int
    duals: np.ndarray


def _recheck(lp, cost, x, backend_objective, name):
    """Re-check a backend point of `lp` under objective `cost` (in the
    program's sense): the worst constraint or bound violation must be at
    most FEASIBILITY_TOL, and the backend's objective must match cost @ x.
    Returns (objective, residual, mismatch)."""
    ax = _matvec(lp.A, x)
    residual = float(np.max([np.max(lp.row_lo - ax, initial=0.0),
                             np.max(ax - lp.row_hi, initial=0.0),
                             np.max(lp.lb - x, initial=0.0), np.max(x - lp.ub, initial=0.0)]))
    if not residual <= FEASIBILITY_TOL:
        raise LpSolveError(f"{name}: solution violates constraints by {residual:.3g}")
    objective = float(cost @ x)
    mismatch = abs(backend_objective - objective)
    if not mismatch <= FEASIBILITY_TOL * max(1.0, abs(objective)):  # NaN too
        raise LpSolveError(f"{name}: objective mismatch {backend_objective!r} vs {objective!r}")
    return objective, residual, float(mismatch)


def _highs_inf(v):
    return np.where(np.isinf(v), np.copysign(highs.kHighsInf, v), v)


def _highs_model(lp, c):
    """A HiGHS model of lp minimising c: lp.A row-wise as it is stored, with
    its row bounds, simplex in lp's direction with presolve on."""
    opts = highs.HighsOptions()
    opts.presolve = "on"
    opts.solver = "simplex"
    opts.simplex_strategy = SIMPLEX[lp.simplex]
    opts.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    opts.output_flag = opts.log_to_console = False
    for key, val in HIGHS_OPTIONS.items():
        setattr(opts, key, val)
    a = lp.A
    model = highs.HighsLp()
    model.num_col_, model.num_row_ = a.shape[1], a.shape[0]
    model.a_matrix_.num_col_, model.a_matrix_.num_row_ = a.shape[1], a.shape[0]
    model.a_matrix_.format_ = highs.MatrixFormat.kRowwise
    model.a_matrix_.start_, model.a_matrix_.index_, model.a_matrix_.value_ = (
        a.indptr, a.indices, a.data)
    model.col_cost_ = c
    model.col_lower_, model.col_upper_ = _highs_inf(lp.lb), _highs_inf(lp.ub)
    model.row_lower_, model.row_upper_ = _highs_inf(lp.row_lo), _highs_inf(lp.row_hi)
    h = highs._Highs()
    if (h.passOptions(opts) == highs.HighsStatus.kError
            or h.passModel(model) == highs.HighsStatus.kError):
        raise LpSolveError(f"{lp.name}: HiGHS refused the model")
    return h


@dataclass
class _HighsPoint:
    """One optimal HiGHS run as it came back, before any re-check: the
    point x, the objective HiGHS reports for the cost it minimised, its
    simplex iteration count and its row duals (one per row of the program,
    as HiGHS signs them)."""

    x: np.ndarray
    fun: float
    nit: int
    row_dual: np.ndarray


def _run_highs(h, name):
    """Run HiGHS model h and return its optimal `_HighsPoint`. A run error
    or any status but optimal raises `LpSolveError("<name>: <status>")`."""
    run = h.run()
    status = h.getModelStatus()
    if run == highs.HighsStatus.kError or status != highs.HighsModelStatus.kOptimal:
        raise LpSolveError(f"{name}: {h.modelStatusToString(status)}")
    info, sol = h.getInfo(), h.getSolution()
    return _HighsPoint(np.array(sol.col_value), info.objective_function_value,
                       int(info.simplex_iteration_count), np.array(sol.row_dual))


class Sweep:
    """One HiGHS model of a program, solved under one cost after another.

    `solve(cost)` runs the program under objective cost (a vector in the
    program's sense; prog.c itself is not used) and returns its optimal,
    re-checked `LpSolution`. The first cost runs cold, in the program's
    own direction (`LinearProgram.simplex`); each later one only changes
    the costs and pivots primal from the previous optimal basis. A change
    of costs leaves that basis primal feasible, so primal simplex goes on
    from it, where dual simplex would first repair its dual feasibility
    (perfbench's sparse 400x4: 447 iterations over the 23 later points of
    the scan's sweep, against 1,259 on dual simplex). A cost that is not
    solved to optimality, or whose point fails the re-check, raises
    `LpSolveError` naming the program and the cost's index (or name, when
    given). The caller picks each cost after seeing the points before it.
    """

    def __init__(self, prog):
        self.prog = prog
        self.count = 0  # costs solved so far
        # HiGHS minimises a "max" program negated
        self._sign = 1.0 if prog.sense == "min" else -1.0
        self._cols = np.arange(prog.c.size, dtype=np.int32)
        self._h = None

    def solve(self, cost, name=None):
        prog, sign = self.prog, self._sign
        if name is None:
            name = f"{prog.name} [cost {self.count}]"
        if self._h is None:
            self._h = _highs_model(prog, sign * cost)
        else:
            if self.count == 1:
                self._h.setOptionValue("simplex_strategy", SIMPLEX["primal"])
            self._h.changeColsCost(self._cols.size, self._cols, sign * cost)
        point = _run_highs(self._h, name)
        objective, residual, mismatch = _recheck(prog, cost, point.x, sign * point.fun, name)
        self.count += 1
        return LpSolution(objective, point.x, residual, mismatch, point.nit,
                          sign * point.row_dual)


def solve(lp):
    """Solve an LP with HiGHS simplex in the program's direction
    (`lp.simplex`), returning the optimal point, the re-check's figures and
    the shadow prices. Any status but optimal, and a point that fails the
    re-check, raise `LpSolveError` naming the program.

    The simplex method returns a basic solution, an extreme point of the
    feasible region, which is what bounds the solver's randomization count.
    Identical programs yield identical solutions across runs; this is the
    first cost of a `Sweep`, so `Sweep(lp).solve(lp.c)` runs the same model
    to the same point.
    """
    return Sweep(lp).solve(lp.c, lp.name)


def solve_sweep(lp, costs):
    """Solve lp under each objective in costs (vectors in lp's sense; lp.c
    itself is not used), returning one `LpSolution` per cost: the costs of
    one `Sweep`, in order, so every point is re-checked as in `solve` and
    carries its shadow prices. The first cost that is not solved to
    optimality raises `LpSolveError` naming the program and the cost's
    index.
    """
    sweep = Sweep(lp)
    return [sweep.solve(cost) for cost in costs]


# -- blocks ---------------------------------------------------------------------


def _unit(n, i):
    out = np.zeros(n)
    out[i] = 1.0
    return out


def _rows(a, relation, rhs):
    """A block of rows a @ x (relation) rhs, as (A, row_lo, row_hi)."""
    rhs = np.asarray(rhs, dtype=float)
    free = np.full(rhs.size, np.inf)
    return a, -free if relation == "<=" else rhs, free if relation == ">=" else rhs


def _stack(*blocks):
    """The (A, row_lo, row_hi) of `_rows` blocks, all as wide as the first,
    stacked in order."""
    mats, lo, hi = zip(*blocks)
    offsets = np.cumsum([0] + [m.data.size for m in mats])
    indptr = np.concatenate([[0]] + [m.indptr[1:] + off for m, off in zip(mats, offsets)])
    a = CsrMatrix(indptr, np.concatenate([m.indices for m in mats]),
                  np.concatenate([m.data for m in mats]), (indptr.size - 1, mats[0].shape[1]))
    return a, np.concatenate(lo), np.concatenate(hi)


def _polytope(instance, n_cols):
    """Flow balance per state plus total mass one over the first n_pairs
    columns: row j < m, state j's balance [pair_state == j] - kernel[:, j]
    = 0, then row m, the norm all ones = 1. Returns a `_rows` block."""
    n, m = instance.n_pairs, instance.n_states
    k, j = np.nonzero(instance.kernel)
    pairs = np.arange(n)
    a = _matrix((m + 1, n_cols),
                np.concatenate((instance.pair_state, j, np.full(n, m))),
                np.concatenate((pairs, k, pairs)),
                np.concatenate((np.ones(n), -instance.kernel[k, j], np.ones(n))))
    return _rows(a, "=", _unit(m + 1, m))


def _mean_rewards(instance):
    """E_k r, the mean reward each pair pays, summed over its atoms
    (`risk.atom_sums`)."""
    pair, grid, prob = instance.reward_atoms
    return atom_sums(prob * instance.reward_values[grid], pair, instance.n_pairs)


def _excess(values, y_col, w_col):
    """Rows w_e + y >= e, one per value e of the reward grid `values`, in
    its order; the w columns come last, from w_col. Returns a `_rows` block.

    One column per value, not per (pair, atom), leaves the optimum as it
    is: in the other rows of both programs that use it (the level
    program's price rows, the primal program's vertex rows) w enters only
    with the sign that a larger w makes harder to meet, so the least
    feasible w_e, (e - y)^+, is optimal whether or not atoms share a
    column, and pair k's row then holds sum_c p_kc (r_kc - y)^+ either way.
    """
    n_w = values.size
    e = np.arange(n_w)
    a = _matrix((n_w, w_col + n_w), np.concatenate((e, e)),
                np.concatenate((w_col + e, np.full(n_w, y_col))), np.ones(2 * n_w))
    return _rows(a, ">=", values)


# -- builders: each docstring gives its program's column and row order -----


def build_average_lp(instance, y, params):
    """max_x v(x, y) over the occupation polytope, for a fixed tail level y.

    With y fixed the positive parts are constants, so this is the classical
    average-reward occupation LP with per-pair coefficients c_k(y).

    Columns: x, one per pair. Rows: the `_polytope` rows.
    """
    n = instance.n_pairs
    return LinearProgram(f"{instance.name}-average(y={y:g})", "max",
                         saddle_coefficients(instance, y, params), np.zeros(n),
                         np.full(n, np.inf), *_stack(_polytope(instance, n)))


def build_dual_lp(instance, params):
    """The polynomial-size program that yields the optimal occupation
    measure: max z2 subject to v(x, e) >= z2 at every reward endpoint e,
    x in the occupation polytope.

    Endpoints sharing a reward value produce identical rows, so one row
    per distinct value is emitted.

    Columns: x, one per pair (0..n_pairs-1), then z2 (n_pairs).
    Rows: K tail rows, row i v(x, e_i) - z2 >= 0 at the i-th sorted value
    e_i of `breakpoints(instance)`; then the `_polytope` rows, so the norm
    row is last.
    """
    ends = breakpoints(instance)
    n, n_tail = instance.n_pairs, len(ends)
    tail = saddle_coefficient_rows(instance, ends, params)
    return LinearProgram(f"{instance.name}-dual", "max", _unit(n + 1, n),
                         np.append(np.zeros(n), -np.inf), np.full(n + 1, np.inf),
                         *_stack(_rows(_dense(np.column_stack((tail, -np.ones(n_tail)))), ">=",
                                       np.zeros(n_tail)),
                                 _polytope(instance, n + 1)))


def build_primal_lp(instance, xs, params):
    """The vertex program that yields the optimal tail level: min z1
    subject to v(x^l, y) <= z1 at every polytope vertex x^l, with the
    positive parts linearized through excess variables w_e >= e - y,
    w_e >= 0, one per value e of the reward grid.
    `xs` is an (L, n_pairs) array whose row l is the vertex x^l.

    Columns: y (0), z1 (1), then the w of the `_excess` rows (from 2).
    Rows: L vertex rows, row l
    (sum x^l) y - z1 + sum_e (sum_k x^l_k P_k(r = e)) w_e / (1-alpha)
    <= -beta x^l E r, the w_e coefficient summed over the atoms at e in
    `reward_atoms` order; then the `_excess` rows w_e + y >= e.
    """
    xs = np.asarray(xs, dtype=float)
    if len(xs) == 0:
        raise ValueError("need at least one polytope vertex")
    lo, hi = instance.reward_bounds()
    inv = 1.0 / (1.0 - params.alpha)
    k, w_col, p = instance.reward_atoms
    w = np.zeros((len(xs), instance.reward_values.size))
    np.add.at(w, (slice(None), w_col), (inv * xs)[:, k] * p)
    pair_mean = _mean_rewards(instance)
    mean = [xl @ pair_mean for xl in xs]  # row by row, like the pair means
    vertex = _dense(np.column_stack(([xl.sum() for xl in xs], np.full(len(xs), -1.0), w)))
    n_cols = vertex.shape[1]
    return LinearProgram(f"{instance.name}-primal", "min", _unit(n_cols, 1),
                         np.concatenate(([lo, -np.inf], np.zeros(n_cols - 2))),
                         np.concatenate(([hi], np.full(n_cols - 1, np.inf))),
                         *_stack(_rows(vertex, "<=", -params.beta * np.array(mean)),
                                 _excess(instance.reward_values, 0, 2)))


def build_level_lp(instance, params):
    """Joint program over the tail level y and the polytope's dual prices.

    For fixed y the inner maximum of v(x, y) over the occupation polytope
    equals, by LP duality, the smallest gain u0 supported by bias prices u:
        u[i] - sum_j P(j|i,a) u[j] + u0 >= c_(i,a)(y)  for every pair.
    Minimizing jointly over (u, u0, y) with the positive parts linearized
    through w_e >= e - y, w_e >= 0, one per value e of the reward grid,
    yields min_y max_x v(x, y) exactly, including tail levels strictly
    between reward values (where the upper envelope of the vertex lines has
    a crossing). y ranges over the reward bounds [L, U].

    Columns: u, one per state (0..m-1), then u0 (m), y (m + 1), and one w
    per grid value, in order, of the `_excess` rows (from m + 2).
    Rows: n_pairs price rows, one per pair k, in state i,
    u_i - (P u)_k + u0 - y - sum_e P_k(r = e) w_e / (1-alpha) >= beta E_k r,
    the w_e entry summed over pair k's atoms at e; then K excess rows
    w_e + y >= e, K the size of the grid.

    The program pivots primal: dual simplex on it runs about sixty times
    as many iterations (perfbench's sparse 400x4: 31,427 against 536).
    """
    lo, hi = instance.reward_bounds()
    inv = 1.0 / (1.0 - params.alpha)
    n, m = instance.n_pairs, instance.n_states
    u0, y, w0 = m, m + 1, m + 2
    k, j = np.nonzero(instance.kernel)
    p = instance.kernel[k, j]
    pairs = np.arange(n)
    w_pair, w_col, w_prob = instance.reward_atoms
    n_w = instance.reward_values.size
    price = _matrix((n, w0 + n_w),
                    np.concatenate((pairs, k, pairs, pairs, w_pair)),
                    np.concatenate((instance.pair_state, j, np.full(n, u0), np.full(n, y),
                                    w0 + w_col)),
                    np.concatenate((np.ones(n), -p, np.ones(n), -np.ones(n), -inv * w_prob)))
    return LinearProgram(f"{instance.name}-level", "min", _unit(w0 + n_w, u0),
                         np.concatenate((np.full(m + 1, -np.inf), [lo], np.zeros(n_w))),
                         np.concatenate((np.full(m + 1, np.inf), [hi], np.full(n_w, np.inf))),
                         *_stack(_rows(price, ">=", params.beta * _mean_rewards(instance)),
                                 _excess(instance.reward_values, y, w0)),
                         simplex="primal")


def build_sparsify_lp(instance, y_star, params):
    """Re-optimize over occupation measures whose tail level stays y_star.

    Two quantile rows pin the law's CDF around y_star: at least alpha mass
    at or below it, and (through the slack x0 >= 0) at most alpha mass
    strictly below it. A basic optimal solution then has few nonzeros,
    which is what bounds the randomization count. The strictness the
    theory puts on x0 cannot be expressed in an LP; callers must treat
    x0 ~ 0 as a tie and keep their original measure.

    Columns: x, one per pair (0..n_pairs-1), then x0 (n_pairs).
    Rows: the at-or-below row -P(r <= y*) x <= -alpha, the strictly-below
    row P(r < y*) x + x0 = alpha, then the `_polytope` rows.
    """
    n = instance.n_pairs
    # with delta the grid's smallest gap, r <= y* - delta on the grid is the
    # same as r < y*; the midpoint threshold is immune to rounding of
    # y* - delta. A one-value grid has no gap, and no reward below y*.
    delta = np.diff(breakpoints(instance)).min(initial=np.inf)
    pair, grid, prob = instance.reward_atoms
    r = instance.reward_values[grid]
    # per pair: the probability of a reward at or below y*, and below it
    at_w = atom_sums(prob * (r <= y_star), pair, n)
    below_w = atom_sums(prob * (r < y_star - delta / 2.0), pair, n)
    return LinearProgram(f"{instance.name}-sparsify(y={y_star:g})", "max",
                         np.append(saddle_coefficients(instance, y_star, params), 0.0),
                         np.zeros(n + 1), np.full(n + 1, np.inf),
                         *_stack(_rows(_dense(np.append(-at_w, 0.0)[None, :]), "<=",
                                       [-params.alpha]),
                                 _rows(_dense(np.append(below_w, 1.0)[None, :]), "=",
                                       [params.alpha]),
                                 _polytope(instance, n + 1)))


def pair_values(instance, solution):
    """The per-pair values x of a solved dual, average or sparsify
    program, whose first n_pairs columns they are."""
    return solution.x[:instance.n_pairs]
