"""Linear programs as sparse arrays, and the builders for every program the
solver needs.

A program is what HiGHS reads: min or max c @ x subject to A_ub @ x <= b_ub,
A_eq @ x = b_eq and lb <= x <= ub, with CSR matrices that store no zeros,
plus one name per column and one per row. The builders assemble the arrays
with numpy from the instance's kernel, pair layout and `reward_atoms`.

`solve` and `solve_sweep` load a program into one HiGHS simplex model
(basic solutions, deterministic for identical input) and re-check every
point with A @ x - b and the bounds; a numerical failure raises instead of
masquerading as "optimal". `solve` runs one cost and reads the shadow
prices too; `solve_sweep` runs a sequence of objectives on the same model,
so each objective after the first starts from the previous optimal basis,
which backs the endpoint scan, whose average programs differ only in their
costs. The simplex direction is the program's own (`LinearProgram.simplex`),
set by its builder: `build_level_lp`, which dualises the occupation
polytope, pivots primal, because dual simplex takes thousands of
iterations on it where primal takes hundreds; every other program pivots
dual, the faster direction on the occupation programs.
`Variable` and `Constraint` are a named view built on demand for LP-file
export and hand-written programs (`LinearProgram.from_rows`); solving
never builds it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog  # noqa: F401  unused here; perfbench/spans.py wraps lp.linprog
from scipy.optimize._highspy import _core as highs
from scipy.sparse import csc_array, csr_array, vstack

from .risk import breakpoints, saddle_coefficients

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


def _matrix(shape, rows, cols, vals):
    """CSR matrix from triplets; duplicates are summed and no zero is stored."""
    a = csr_array((np.asarray(vals, float), (np.asarray(rows, int), np.asarray(cols, int))), shape=shape)
    a.eliminate_zeros()
    return a


@dataclass(frozen=True)
class LinearProgram:
    """min or max c @ x s.t. A_ub @ x <= b_ub, A_eq @ x = b_eq, lb <= x <= ub.

    row_names names the A_ub rows, then the A_eq rows. ub_sign[i] is +1
    when A_ub row i was written "<=" and -1 when it was written ">=" and
    is stored negated; shadow prices and the named view refer to the row
    as written. A missing block has no rows. simplex ("dual" or "primal")
    is the direction HiGHS pivots in, chosen by the program's builder.
    """

    name: str
    sense: str  # "min" or "max"
    c: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    col_names: list
    row_names: list
    A_ub: csr_array | None = None
    b_ub: np.ndarray | None = None
    ub_sign: np.ndarray | None = None
    A_eq: csr_array | None = None
    b_eq: np.ndarray | None = None
    simplex: str = "dual"

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {self.sense!r}")
        if self.simplex not in SIMPLEX:
            raise ValueError(f"simplex must be one of {tuple(SIMPLEX)}, got {self.simplex!r}")
        for field in ("A_ub", "b_ub", "ub_sign", "A_eq", "b_eq"):
            if getattr(self, field) is None:
                empty = csr_array((0, self.c.size)) if field[0] == "A" else np.zeros(0)
                object.__setattr__(self, field, empty)

    @classmethod
    def from_rows(cls, name, sense, objective, variables, constraints):
        """A program from named `Variable`s, an objective {name: coef} and
        `Constraint`s."""
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
        ub_rows = [con for con in constraints if con.relation != "="]
        eq_rows = [con for con in constraints if con.relation == "="]
        ub_sign = np.array([1.0 if con.relation == "<=" else -1.0 for con in ub_rows])

        def block(rows, signs):
            trip = [(i, col[nm], s * coef) for i, (con, s) in enumerate(zip(rows, signs))
                    for nm, coef in con.coeffs.items()]
            r, k, v = zip(*trip) if trip else ((), (), ())
            return (_matrix((len(rows), n), r, k, v),
                    np.array([s * con.rhs for con, s in zip(rows, signs)], dtype=float))

        a_ub, b_ub = block(ub_rows, ub_sign)
        a_eq, b_eq = block(eq_rows, np.ones(len(eq_rows)))
        return cls(name, sense, c, np.array([v.lb for v in variables], dtype=float),
                   np.array([v.ub for v in variables], dtype=float), [v.name for v in variables],
                   [con.name for con in ub_rows + eq_rows],
                   A_ub=a_ub, b_ub=b_ub, ub_sign=ub_sign, A_eq=a_eq, b_eq=b_eq)

    # -- named view, built on demand --------------------------------------------

    @property
    def variables(self):
        return tuple(map(Variable, self.col_names, self.lb.tolist(), self.ub.tolist()))

    @property
    def objective(self):
        return {self.col_names[i]: float(self.c[i]) for i in np.flatnonzero(self.c)}

    @property
    def constraints(self):
        out = []
        blocks = ((self.A_ub, self.b_ub, self.ub_sign, ["<=" if s > 0.0 else ">=" for s in self.ub_sign]),
                  (self.A_eq, self.b_eq, np.ones(len(self.b_eq)), ["="] * len(self.b_eq)))
        for a, b, signs, relations in blocks:
            names = [self.col_names[j] for j in a.indices.tolist()]
            coeffs = (a.data * np.repeat(signs, np.diff(a.indptr))).tolist()
            ends = a.indptr.tolist()
            for i, rhs in enumerate((signs * b).tolist()):
                lo, hi = ends[i], ends[i + 1]
                out.append(Constraint(self.row_names[len(out)], dict(zip(names[lo:hi], coeffs[lo:hi])),
                                      relations[i], rhs))
        return tuple(out)


@dataclass(frozen=True)
class LpSolution:
    """Outcome of `solve`, or of one point of `solve_sweep` (which leaves
    duals None).

    duals maps each constraint name to its shadow price: the rate at which
    the optimal objective, in the program's own sense, changes per unit
    increase of the row's right-hand side. So a binding "<=" row of a
    "max" program has a price >= 0 and a binding ">=" row one <= 0. nit is
    HiGHS's iteration count; residual (worst constraint or bound violation)
    and mismatch (|backend objective - recomputed objective|) are the
    re-check's figures.
    """

    status: str  # optimal | infeasible | unbounded
    objective: float | None
    values: dict | None
    vertex: bool
    duals: dict | None = None
    nit: int = 0
    residual: float | None = None
    mismatch: float | None = None

    def __getitem__(self, name):
        return self.values[name]


def _recheck(lp, cost, x, backend_objective, tol, name):
    """Re-check a backend point of `lp` under objective `cost` (in the
    program's sense): the worst constraint or bound violation must be at
    most tol, and the backend's objective must match cost @ x. Returns
    (objective, residual, mismatch)."""
    residual = float(np.max([np.max(lp.A_ub @ x - lp.b_ub, initial=0.0),
                             np.max(np.abs(lp.A_eq @ x - lp.b_eq), initial=0.0),
                             np.max(lp.lb - x, initial=0.0), np.max(x - lp.ub, initial=0.0)]))
    if not residual <= tol:
        raise LpSolveError(f"{name}: solution violates constraints by {residual:.3g}")
    objective = float(cost @ x)
    mismatch = abs(backend_objective - objective)
    if mismatch > max(tol, tol * abs(objective)):
        raise LpSolveError(f"{name}: objective mismatch {backend_objective!r} vs {objective!r}")
    return objective, residual, float(mismatch)


def _highs_inf(v):
    return np.where(np.isinf(v), np.copysign(highs.kHighsInf, v), v)


def _highs_model(lp, c):
    """A HiGHS model of lp minimising c, loaded the way `linprog` loads it:
    A_ub over A_eq in CSC form, rows -inf/b_eq <= A x <= b_ub/b_eq, simplex
    in lp's direction with presolve on."""
    opts = highs.HighsOptions()
    opts.presolve = "on"
    opts.solver = "simplex"
    opts.simplex_strategy = SIMPLEX[lp.simplex]
    opts.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    opts.output_flag = opts.log_to_console = False
    for key, val in HIGHS_OPTIONS.items():
        setattr(opts, key, val)
    a = csc_array(vstack((lp.A_ub, lp.A_eq)))
    model = highs.HighsLp()
    model.num_col_, model.num_row_ = a.shape[1], a.shape[0]
    model.a_matrix_.num_col_, model.a_matrix_.num_row_ = a.shape[1], a.shape[0]
    model.a_matrix_.format_ = highs.MatrixFormat.kColwise
    model.a_matrix_.start_, model.a_matrix_.index_, model.a_matrix_.value_ = (
        a.indptr, a.indices, a.data)
    model.col_cost_ = c
    model.col_lower_, model.col_upper_ = _highs_inf(lp.lb), _highs_inf(lp.ub)
    model.row_lower_ = _highs_inf(np.concatenate((np.full(lp.b_ub.size, -np.inf), lp.b_eq)))
    model.row_upper_ = _highs_inf(np.concatenate((lp.b_ub, lp.b_eq)))
    h = highs._Highs()
    if (h.passOptions(opts) == highs.HighsStatus.kError
            or h.passModel(model) == highs.HighsStatus.kError):
        raise LpSolveError(f"{lp.name}: HiGHS refused the model")
    return h


@dataclass
class _HighsPoint:
    """One HiGHS run as it came back, before any re-check: the status and,
    when optimal, the point x, the objective HiGHS reports for the cost it
    minimised, its simplex iteration count and its row duals (A_ub rows,
    then A_eq rows, as HiGHS signs them)."""

    status: str  # optimal | infeasible | unbounded
    x: np.ndarray | None = None
    fun: float | None = None
    nit: int = 0
    row_dual: np.ndarray | None = None


_CLOSED = {highs.HighsModelStatus.kInfeasible: "infeasible",
           highs.HighsModelStatus.kUnbounded: "unbounded"}


def _run_highs(h, name):
    """Run HiGHS model h and return its raw `_HighsPoint`. A run error or a
    status other than optimal, infeasible or unbounded raises."""
    if h.run() == highs.HighsStatus.kError:
        raise LpSolveError(f"{name}: backend failure "
                           f"({h.modelStatusToString(h.getModelStatus())})")
    status = h.getModelStatus()
    if status in _CLOSED:
        return _HighsPoint(_CLOSED[status])
    if status != highs.HighsModelStatus.kOptimal:
        raise LpSolveError(f"{name}: backend failure ({h.modelStatusToString(status)})")
    info, sol = h.getInfo(), h.getSolution()
    return _HighsPoint("optimal", np.array(sol.col_value), info.objective_function_value,
                      int(info.simplex_iteration_count), np.array(sol.row_dual))


def _sign(lp):
    """+1 for a "min" program, -1 for a "max" one, which HiGHS minimises negated."""
    return 1.0 if lp.sense == "min" else -1.0


def _solution(h, lp, cost, tol, name, duals):
    """Run h, which minimises _sign(lp) * cost, re-check its point and wrap
    it as an `LpSolution`, with shadow prices when duals is true."""
    sign = _sign(lp)
    point = _run_highs(h, name)
    if point.status != "optimal":
        return LpSolution(point.status, None, None, False)
    objective, residual, mismatch = _recheck(lp, cost, point.x, sign * point.fun, tol, name)
    prices = None
    if duals:
        flips = sign * np.concatenate((lp.ub_sign, np.ones(lp.b_eq.size)))
        prices = dict(zip(lp.row_names, (flips * point.row_dual).tolist()))
    return LpSolution("optimal", objective, dict(zip(lp.col_names, point.x.tolist())), True,
                      duals=prices, nit=point.nit, residual=residual, mismatch=mismatch)


def solve(lp, tol=FEASIBILITY_TOL):
    """Solve an LP with HiGHS simplex in the program's direction
    (`lp.simplex`), returning the point, the re-check's figures and the
    shadow prices.

    The simplex method returns a basic solution, an extreme point of the
    feasible region, which is what bounds the solver's randomization count.
    Identical programs yield identical solutions across runs, and
    `solve_sweep(lp, [lp.c])[0]` runs the same model to the same point.
    """
    return _solution(_highs_model(lp, _sign(lp) * lp.c), lp, lp.c, tol, lp.name, duals=True)


def solve_sweep(lp, costs, tol=FEASIBILITY_TOL):
    """Solve lp under each objective in costs (vectors in lp's sense; lp.c
    itself is not used), returning one `LpSolution` per cost.

    All points share one HiGHS model: the first cost runs cold, exactly as
    `solve` would run it, and each later one only changes the costs, so
    the simplex starts from the previous optimal basis. Every point is
    re-checked as in `solve`; duals are not collected.
    """
    sign = _sign(lp)
    cols = np.arange(lp.c.size, dtype=np.int32)
    h, out = None, []
    for i, cost in enumerate(costs):
        if h is None:
            h = _highs_model(lp, sign * cost)
        else:
            h.changeColsCost(cols.size, cols, sign * cost)
        out.append(_solution(h, lp, cost, tol, f"{lp.name} [cost {i}]", duals=False))
    return out


# -- blocks ---------------------------------------------------------------------


def _pair_suffixes(instance):
    # State and local-action indices; positional so the names stay safe for
    # the LP file format. instance.pair_name maps them back to labels.
    local = np.arange(instance.n_pairs) - instance.offsets[instance.pair_state]
    return [f"{i}_{a}" for i, a in zip(instance.pair_state.tolist(), local.tolist())]


def _x_names(instance):
    return [f"x_{sfx}" for sfx in _pair_suffixes(instance)]


def _unit(n, i):
    out = np.zeros(n)
    out[i] = 1.0
    return out


def _polytope(instance, n_cols):
    """Flow balance per state plus total mass one over the first n_pairs
    columns: balance row j is [pair_state == j] - kernel[:, j], the norm row
    all ones. Returns (A_eq, b_eq, row names)."""
    n, m = instance.n_pairs, instance.n_states
    k, j = np.nonzero(instance.kernel)
    pairs = np.arange(n)
    a = _matrix((m + 1, n_cols),
                np.concatenate((instance.pair_state, j, np.full(n, m))),
                np.concatenate((pairs, k, pairs)),
                np.concatenate((np.ones(n), -instance.kernel[k, j], np.ones(n))))
    return a, _unit(m + 1, m), [f"balance_{s}" for s in range(m)] + ["norm"]


def _mean_rewards(instance):
    """E_k r, the mean reward each pair pays: one dot product per row, the
    same as probs[k] @ values[k]; a matrix product may sum in another order
    and move the last bit."""
    values, probs = instance.reward_atoms
    return (probs[:, None, :] @ values[:, :, None]).ravel()


def _excess(instance, y_col, w_col):
    """Rows w >= r - y, one per excess variable w, that is per reward
    values[k, c] of `reward_atoms` paid with positive probability (in
    `np.nonzero(probs)` order), stored as -w - y <= -r. The w columns come
    last, from w_col. Returns (A_ub, b_ub, row names, w column names)."""
    values, probs = instance.reward_atoms
    k, c = np.nonzero(probs)
    sfx, n_w = _pair_suffixes(instance), k.size
    # names carry the next state only where a pair can pay several rewards
    cols = [f"_{j}" for j in c.tolist()] if values.shape[1] > 1 else [""] * n_w
    w_names = [f"w_{sfx[q]}{t}" for q, t in zip(k.tolist(), cols)]
    rows = [f"excess_{q}{t}" for q, t in zip(k.tolist(), cols)]
    e = np.arange(n_w)
    a = _matrix((n_w, w_col + n_w), np.concatenate((e, e)),
                np.concatenate((w_col + e, np.full(n_w, y_col))), np.full(2 * n_w, -1.0))
    return a, -values[k, c], rows, w_names


# -- builders -----------------------------------------------------------------


def build_average_lp(instance, y, params):
    """max_x v(x, y) over the occupation polytope, for a fixed tail level y.

    With y fixed the positive parts are constants, so this is the classical
    average-reward occupation LP with per-pair coefficients c_k(y).
    """
    n = instance.n_pairs
    a_eq, b_eq, rows = _polytope(instance, n)
    return LinearProgram(f"{instance.name}-average(y={y:g})", "max",
                         saddle_coefficients(instance, y, params), np.zeros(n),
                         np.full(n, np.inf), _x_names(instance), rows, A_eq=a_eq, b_eq=b_eq)


def build_dual_lp(instance, params, grid=None):
    """The polynomial-size program that yields the optimal occupation
    measure: max z2 subject to v(x, e) >= z2 at every reward endpoint e,
    x in the occupation polytope.

    Endpoints sharing a reward value produce identical rows, so one row
    per distinct value is emitted: row `tail_i` at the i-th sorted value
    (`grid` when the caller already holds `breakpoints(instance).values`).
    """
    ends = breakpoints(instance).values if grid is None else grid
    n, n_tail = instance.n_pairs, len(ends)
    tail = np.array([saddle_coefficients(instance, float(e), params) for e in ends])
    a_eq, b_eq, rows = _polytope(instance, n + 1)
    # v(x, e) - z2 >= 0, stored negated
    return LinearProgram(f"{instance.name}-dual", "max", _unit(n + 1, n),
                         np.append(np.zeros(n), -np.inf), np.full(n + 1, np.inf),
                         _x_names(instance) + ["z2"], [f"tail_{i}" for i in range(n_tail)] + rows,
                         A_ub=csr_array(np.column_stack((-tail, np.ones(n_tail)))),
                         b_ub=-np.zeros(n_tail), ub_sign=np.full(n_tail, -1.0),
                         A_eq=a_eq, b_eq=b_eq)


def build_primal_lp(instance, vertices, params):
    """The vertex program that yields the optimal tail level: min z1
    subject to v(x^l, y) <= z1 at every polytope vertex x^l, with the
    positive parts linearized through excess variables w >= r - y, w >= 0.
    """
    if len(vertices) == 0:
        raise ValueError("need at least one polytope vertex")
    lo, hi = instance.reward_bounds()
    inv = 1.0 / (1.0 - params.alpha)
    xs = np.asarray(vertices.xs, dtype=float)
    probs = instance.reward_atoms[1]
    k, c = np.nonzero(probs)  # the rewards each pair can pay
    w = (inv * xs)[:, k] * probs[k, c]
    pair_mean = _mean_rewards(instance)
    mean = [xl @ pair_mean for xl in xs]  # row by row, like the pair means
    # columns y, z1, w; vertex row l: (sum x^l) y - z1 + x^l w / (1-alpha) <= -beta mean
    vertex = csr_array(np.column_stack(([xl.sum() for xl in xs], np.full(len(xs), -1.0), w)))
    n_cols = vertex.shape[1]
    a_exc, b_exc, exc_rows, w_names = _excess(instance, 0, 2)
    return LinearProgram(f"{instance.name}-primal", "min", _unit(n_cols, 1),
                         np.concatenate(([lo, -np.inf], np.zeros(n_cols - 2))),
                         np.concatenate(([hi], np.full(n_cols - 1, np.inf))),
                         ["y", "z1"] + w_names, [f"vertex_{l}" for l in range(len(xs))] + exc_rows,
                         A_ub=vstack((vertex, a_exc), format="csr"),
                         b_ub=np.concatenate((-params.beta * np.array(mean), b_exc)),
                         ub_sign=np.concatenate((np.ones(len(xs)), -np.ones(b_exc.size))))


def build_level_lp(instance, params):
    """Joint program over the tail level y and the polytope's dual prices.

    For fixed y the inner maximum of v(x, y) over the occupation polytope
    equals, by LP duality, the smallest gain u0 supported by bias prices u:
        u[i] - sum_j P(j|i,a) u[j] + u0 >= c_(i,a)(y)  for every pair.
    Minimizing jointly over (u, u0, y) with the positive parts linearized
    through w >= r - y, w >= 0 yields min_y max_x v(x, y) exactly, including
    tail levels strictly between reward values (where the upper envelope of
    the vertex lines has a crossing). y ranges over the reward bounds [L, U].

    The program pivots primal: dual simplex on it runs about fifteen times
    as many iterations (sparse 400x4: about 8,800 against 590) and did not
    finish in 600 s at sparse 1000x4.
    """
    lo, hi = instance.reward_bounds()
    inv = 1.0 / (1.0 - params.alpha)
    n, m = instance.n_pairs, instance.n_states
    u0, y, w0 = m, m + 1, m + 2  # columns u_0..u_{m-1}, u0, y, then w
    k, j = np.nonzero(instance.kernel)
    p = instance.kernel[k, j]
    pairs = np.arange(n)
    probs = instance.reward_atoms[1]
    w_rows, w_at = np.nonzero(probs)  # the rewards each pair can pay
    n_w, w_cols, w_vals = w_rows.size, w0 + np.arange(w_rows.size), inv * probs[w_rows, w_at]
    rhs = params.beta * _mean_rewards(instance)
    # price row k, negated: -u_i(k) + (P u)_k - u0 + y + E_k[w] / (1-alpha) <= -beta E_k r
    price = _matrix((n, w0 + n_w),
                    np.concatenate((pairs, k, pairs, pairs, w_rows)),
                    np.concatenate((instance.pair_state, j, np.full(n, u0), np.full(n, y), w_cols)),
                    np.concatenate((-np.ones(n), p, -np.ones(n), np.ones(n), w_vals)))
    a_exc, b_exc, exc_rows, w_names = _excess(instance, y, w0)
    return LinearProgram(f"{instance.name}-level", "min", _unit(w0 + n_w, u0),
                         np.concatenate((np.full(m + 1, -np.inf), [lo], np.zeros(n_w))),
                         np.concatenate((np.full(m + 1, np.inf), [hi], np.full(n_w, np.inf))),
                         [f"u_{s}" for s in range(m)] + ["u0", "y"] + w_names,
                         [f"price_{q}" for q in range(n)] + exc_rows,
                         A_ub=vstack((price, a_exc), format="csr"),
                         b_ub=np.concatenate((-rhs, b_exc)), ub_sign=np.full(n + n_w, -1.0),
                         simplex="primal")


def build_sparsify_lp(instance, y_star, params, delta):
    """Re-optimize over occupation measures whose tail level stays y_star.

    Two quantile rows pin the law's CDF around y_star: at least alpha mass
    at or below it, and (through the slack x0 >= 0) at most alpha mass
    strictly below it. A basic optimal solution then has few nonzeros,
    which is what bounds the randomization count. The strictness the
    theory puts on x0 cannot be expressed in an LP; callers must treat
    x0 ~ 0 as a tie and keep their original measure.
    """
    n = instance.n_pairs
    # r <= y* - delta on the instance's value grid is the same as r < y*;
    # the midpoint threshold is immune to rounding of y* - delta.
    below = y_star - (delta / 2.0 if delta is not None else 0.0)
    r, probs = instance.reward_atoms

    def mass(hit):  # per pair: the probability of a reward in `hit`
        return np.einsum("kj,kj->k", probs, hit.astype(float))

    at_w = mass(r <= y_star)
    below_w = mass(r < below) if delta is not None else np.zeros(n)
    a_poly, b_poly, rows = _polytope(instance, n + 1)
    # columns x, x0; tail_at: -at_w x <= -alpha, tail_below: below_w x + x0 = alpha
    return LinearProgram(f"{instance.name}-sparsify(y={y_star:g})", "max",
                         np.append(saddle_coefficients(instance, y_star, params), 0.0),
                         np.zeros(n + 1), np.full(n + 1, np.inf), _x_names(instance) + ["x0"],
                         ["tail_at", "tail_below"] + rows,
                         A_ub=csr_array(np.append(-at_w, 0.0)[None, :]),
                         b_ub=np.array([-params.alpha]), ub_sign=np.ones(1),
                         A_eq=vstack((csr_array(np.append(below_w, 1.0)[None, :]), a_poly),
                                     format="csr"),
                         b_eq=np.concatenate(([params.alpha], b_poly)))


def pair_values(instance, solution, prefix="x"):
    """Collect the per-pair variable values of a solved program."""
    return np.array([solution.values[f"{prefix}_{sfx}"]
                     for sfx in _pair_suffixes(instance)])


# -- LP file export -----------------------------------------------------------


def write_lp_file(lp, target):
    """Write the program in the fixed CPLEX-style LP text format.

    `target` is a path or a writable text handle. Useful for cross-checking
    a program against an external solver.
    """
    if hasattr(target, "write"):
        _write_lp(lp, target)
    else:
        with open(target, "w") as fh:
            _write_lp(lp, fh)


def _term_str(coef, name, first):
    sign = "-" if coef < 0 else ("" if first else "+")
    return f"{sign} {abs(coef):.17g} {name}".strip()


def _write_lp(lp, fh):
    fh.write(f"\\ {lp.name}\n")
    fh.write("Minimize\n" if lp.sense == "min" else "Maximize\n")
    terms = [_term_str(coef, nm, i == 0) for i, (nm, coef) in enumerate(lp.objective.items())]
    fh.write(" obj: " + " ".join(terms) + "\n")
    fh.write("Subject To\n")
    for c in lp.constraints:
        terms = [_term_str(coef, nm, i == 0) for i, (nm, coef) in enumerate(c.coeffs.items())]
        fh.write(f" {c.name}: " + " ".join(terms) + f" {c.relation} {c.rhs:.17g}\n")
    fh.write("Bounds\n")
    for v in lp.variables:
        if v.lb == -np.inf and v.ub == np.inf:
            fh.write(f" {v.name} free\n")
        elif not (v.lb == 0.0 and v.ub == np.inf):
            lo = "-inf" if v.lb == -np.inf else f"{v.lb:.17g}"
            hi = "+inf" if v.ub == np.inf else f"{v.ub:.17g}"
            fh.write(f" {lo} <= {v.name} <= {hi}\n")
    fh.write("End\n")
