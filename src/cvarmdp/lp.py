"""Backend-neutral linear programs and the builders for every program the
solver needs.

The LP description is plain data (named variables with bounds, an
objective, relational constraints); `solve` maps it onto scipy's HiGHS
dual simplex, which returns basic (vertex) solutions and is deterministic
for identical input. Solutions are re-checked against the original
description before they are returned; a numerical failure raises instead
of masquerading as "optimal".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .risk import breakpoints, saddle_coefficients

FEASIBILITY_TOL = 1e-8

RELATIONS = ("<=", "=", ">=")


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
class LinearProgram:
    name: str
    sense: str  # "min" or "max"
    objective: dict
    variables: tuple
    constraints: tuple

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {self.sense!r}")
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        cnames = [c.name for c in self.constraints]
        if len(set(cnames)) != len(cnames):
            raise ValueError("duplicate constraint names")
        declared = set(names)
        for c in self.constraints:
            undeclared = set(c.coeffs) - declared
            if undeclared:
                raise ValueError(f"constraint {c.name!r} references undeclared {sorted(undeclared)}")
        undeclared = set(self.objective) - declared
        if undeclared:
            raise ValueError(f"objective references undeclared {sorted(undeclared)}")

    def n_structural_rows(self):
        return len(self.constraints)

    def n_rows_with_bounds(self):
        """Constraint count including one row per finite variable bound.

        Older complexity analyses count sign restrictions and bounds as
        constraints; this matches that convention, while
        n_structural_rows counts relational rows only.
        """
        bound_rows = sum((1 if np.isfinite(v.lb) else 0) + (1 if np.isfinite(v.ub) else 0)
                         for v in self.variables)
        return len(self.constraints) + bound_rows


@dataclass(frozen=True)
class LpSolution:
    """Outcome of `solve`.

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


def _check_solution(lp, x, tol):
    """Feasibility residual and recomputed objective of a candidate point."""
    worst = 0.0
    for c in lp.constraints:
        lhs = sum(coef * x[v] for v, coef in c.coeffs.items())
        if c.relation == "<=":
            worst = max(worst, lhs - c.rhs)
        elif c.relation == ">=":
            worst = max(worst, c.rhs - lhs)
        else:
            worst = max(worst, abs(lhs - c.rhs))
    for v in lp.variables:
        worst = max(worst, v.lb - x[v.name], x[v.name] - v.ub)
    obj = sum(coef * x[v] for v, coef in lp.objective.items())
    return worst, obj


def solve(lp, tol=FEASIBILITY_TOL):
    """Solve an LP with HiGHS dual simplex.

    The simplex method returns a basic solution, an extreme point of the
    feasible region, which is what bounds the solver's randomization count.
    Identical programs yield identical solutions across runs.
    """
    order = {v.name: i for i, v in enumerate(lp.variables)}
    n = len(lp.variables)
    c = np.zeros(n)
    for name, coef in lp.objective.items():
        c[order[name]] = coef
    sign = 1.0 if lp.sense == "min" else -1.0
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    # per constraint: (is an equality, position in its block, sign taking
    # the backend's marginal to the shadow price in the program's sense)
    dual_map = []
    for con in lp.constraints:
        row = np.zeros(n)
        for name, coef in con.coeffs.items():
            row[order[name]] = coef
        if con.relation == "<=":
            dual_map.append((False, len(a_ub), sign))
            a_ub.append(row)
            b_ub.append(con.rhs)
        elif con.relation == ">=":
            dual_map.append((False, len(a_ub), -sign))
            a_ub.append(-row)
            b_ub.append(-con.rhs)
        else:
            dual_map.append((True, len(a_eq), sign))
            a_eq.append(row)
            b_eq.append(con.rhs)
    bounds = [(v.lb if np.isfinite(v.lb) else None, v.ub if np.isfinite(v.ub) else None)
              for v in lp.variables]
    res = linprog(
        sign * c,
        A_ub=np.asarray(a_ub) if a_ub else None,
        b_ub=np.asarray(b_ub) if b_ub else None,
        A_eq=np.asarray(a_eq) if a_eq else None,
        b_eq=np.asarray(b_eq) if b_eq else None,
        bounds=bounds,
        method="highs-ds",
    )
    if res.status == 2:
        return LpSolution("infeasible", None, None, False)
    if res.status == 3:
        return LpSolution("unbounded", None, None, False)
    if res.status != 0 or res.x is None:
        raise LpSolveError(f"{lp.name}: backend failure ({res.message})")
    values = {v.name: float(x) for v, x in zip(lp.variables, res.x)}
    residual, objective = _check_solution(lp, values, tol)
    if residual > tol:
        raise LpSolveError(f"{lp.name}: solution violates constraints by {residual:.3g}")
    mismatch = abs(sign * res.fun - objective)
    if mismatch > max(tol, tol * abs(objective)):
        raise LpSolveError(f"{lp.name}: objective mismatch {sign * res.fun!r} vs {objective!r}")
    marginals = (res.ineqlin.marginals.tolist() if a_ub else [],
                 res.eqlin.marginals.tolist() if a_eq else [])
    duals = {con.name: s * marginals[eq][i]
             for con, (eq, i, s) in zip(lp.constraints, dual_map)}
    return LpSolution("optimal", float(objective), values, True, duals=duals,
                      nit=int(res.nit), residual=float(residual), mismatch=float(mismatch))


# -- naming -------------------------------------------------------------------


def _pair_suffixes(instance):
    # State and local-action indices; positional so the names stay safe for
    # the LP file format. instance.pair_name maps them back to labels.
    out = []
    for k in range(instance.n_pairs):
        i = int(instance.pair_state[k])
        out.append(f"{i}_{k - instance.offsets[i]}")
    return out


def _pair_var_names(instance):
    return [f"x_{sfx}" for sfx in _pair_suffixes(instance)]


def _polytope_rows(instance, x_names):
    """Flow balance per state plus total mass one, over the variables x."""
    rows = []
    for j in range(instance.n_states):
        coeffs = {}
        lo, hi = instance.offsets[j], instance.offsets[j + 1]
        for k in range(lo, hi):
            coeffs[x_names[k]] = coeffs.get(x_names[k], 0.0) + 1.0
        for k in range(instance.n_pairs):
            p = instance.kernel[k, j]
            if p != 0.0:
                coeffs[x_names[k]] = coeffs.get(x_names[k], 0.0) - p
        rows.append(Constraint(f"balance_{j}", coeffs, "=", 0.0))
    rows.append(Constraint("norm", {name: 1.0 for name in x_names}, "=", 1.0))
    return rows


# -- builders -----------------------------------------------------------------


def build_average_lp(instance, y, params):
    """max_x v(x, y) over the occupation polytope, for a fixed tail level y.

    With y fixed the positive parts are constants, so this is the classical
    average-reward occupation LP with per-pair coefficients c_k(y).
    """
    x_names = _pair_var_names(instance)
    coeff = saddle_coefficients(instance, y, params)
    variables = tuple(Variable(nm, 0.0, np.inf) for nm in x_names)
    objective = {nm: float(coeff[k]) for k, nm in enumerate(x_names)}
    constraints = tuple(_polytope_rows(instance, x_names))
    return LinearProgram(f"{instance.name}-average(y={y:g})", "max", objective, variables, constraints)


def build_dual_lp(instance, params, per_pair_tail=False, grid=None):
    """The polynomial-size program that yields the optimal occupation
    measure: max z2 subject to v(x, e) >= z2 at every reward endpoint e,
    x in the occupation polytope.

    Endpoints sharing a reward value produce identical rows; by default one
    row per distinct value is emitted (row `tail_i` at the i-th sorted
    value, `grid` when the caller already holds `breakpoints(instance).values`),
    `per_pair_tail` restores the one-row-per-pair (or per-triple) layout.
    """
    x_names = _pair_var_names(instance)
    variables = tuple(Variable(nm, 0.0, np.inf) for nm in x_names) + (Variable("z2", -np.inf, np.inf),)
    rows = []
    if per_pair_tail:
        table = instance.reward_table()
        endpoints = [(f"tail_{i}", float(v)) for i, v in enumerate(table)]
    else:
        if grid is None:
            grid = breakpoints(instance).values
        endpoints = [(f"tail_{i}", float(v)) for i, v in enumerate(grid)]
    for row_name, e in endpoints:
        coeff = saddle_coefficients(instance, e, params)
        coeffs = {nm: float(coeff[k]) for k, nm in enumerate(x_names)}
        coeffs["z2"] = -1.0
        rows.append(Constraint(row_name, coeffs, ">=", 0.0))
    rows.extend(_polytope_rows(instance, x_names))
    return LinearProgram(f"{instance.name}-dual", "max", {"z2": 1.0}, variables, tuple(rows))


def build_primal_lp(instance, vertices, params):
    """The vertex program that yields the optimal tail level: min z1
    subject to v(x^l, y) <= z1 at every polytope vertex x^l, with the
    positive parts linearized through excess variables w >= r - y, w >= 0.
    """
    if len(vertices) == 0:
        raise ValueError("need at least one polytope vertex")
    lo, hi = instance.reward_bounds()
    inv = 1.0 / (1.0 - params.alpha)
    triple = instance.uses_next_state_rewards
    sfx = _pair_suffixes(instance)
    if triple:
        w_names = {(k, j): f"w_{sfx[k]}_{j}" for k in range(instance.n_pairs)
                   for j in range(instance.n_states)}
    else:
        w_names = {k: f"w_{sfx[k]}" for k in range(instance.n_pairs)}
    variables = [Variable("y", lo, hi), Variable("z1", -np.inf, np.inf)]
    variables += [Variable(nm, 0.0, np.inf) for nm in w_names.values()]
    rows = []
    for l in range(len(vertices)):
        xl = vertices.xs[l]
        coeffs = {"y": float(xl.sum()), "z1": -1.0}
        if triple:
            rhs = -params.beta * float(np.einsum("k,kj,kj->", xl, instance.kernel, instance.rewards3))
            for k in np.flatnonzero(xl):
                for j in range(instance.n_states):
                    w = inv * xl[k] * instance.kernel[k, j]
                    if w != 0.0:
                        coeffs[w_names[(int(k), j)]] = float(w)
        else:
            rhs = -params.beta * float(xl @ instance.rewards)
            for k in np.flatnonzero(xl):
                coeffs[w_names[int(k)]] = float(inv * xl[k])
        rows.append(Constraint(f"vertex_{l}", coeffs, "<=", rhs))
    if triple:
        for (k, j), nm in w_names.items():
            rows.append(Constraint(f"excess_{k}_{j}", {nm: 1.0, "y": 1.0}, ">=",
                                   float(instance.rewards3[k, j])))
    else:
        for k, nm in w_names.items():
            rows.append(Constraint(f"excess_{k}", {nm: 1.0, "y": 1.0}, ">=",
                                   float(instance.rewards[k])))
    return LinearProgram(f"{instance.name}-primal", "min", {"z1": 1.0},
                         tuple(variables), tuple(rows))


def build_level_lp(instance, params, y_lo=None, y_hi=None):
    """Joint program over the tail level y and the polytope's dual prices.

    For fixed y the inner maximum of v(x, y) over the occupation polytope
    equals, by LP duality, the smallest gain u0 supported by bias prices u:
        u[i] - sum_j P(j|i,a) u[j] + u0 >= c_(i,a)(y)  for every pair.
    Minimizing jointly over (u, u0, y) with the positive parts linearized
    through w >= r - y, w >= 0 yields min_y max_x v(x, y) exactly, including
    tail levels strictly between reward values (where the upper envelope of
    the vertex lines has a crossing). Optional bounds restrict y to a
    subinterval of [L, U].
    """
    lo, hi = instance.reward_bounds()
    y_lo = lo if y_lo is None else float(y_lo)
    y_hi = hi if y_hi is None else float(y_hi)
    inv = 1.0 / (1.0 - params.alpha)
    triple = instance.uses_next_state_rewards
    u_names = [f"u_{j}" for j in range(instance.n_states)]
    sfx = _pair_suffixes(instance)
    if triple:
        w_names = {(k, j): f"w_{sfx[k]}_{j}" for k in range(instance.n_pairs)
                   for j in range(instance.n_states)}
    else:
        w_names = {k: f"w_{sfx[k]}" for k in range(instance.n_pairs)}
    variables = [Variable(nm, -np.inf, np.inf) for nm in u_names]
    variables.append(Variable("u0", -np.inf, np.inf))
    variables.append(Variable("y", y_lo, y_hi))
    variables += [Variable(nm, 0.0, np.inf) for nm in w_names.values()]
    rows = []
    for k in range(instance.n_pairs):
        i = int(instance.pair_state[k])
        coeffs = {u_names[i]: 1.0, "u0": 1.0, "y": -1.0}
        for j in range(instance.n_states):
            p = instance.kernel[k, j]
            if p != 0.0:
                coeffs[u_names[j]] = coeffs.get(u_names[j], 0.0) - p
        if triple:
            rhs = params.beta * float(instance.kernel[k] @ instance.rewards3[k])
            for j in range(instance.n_states):
                p = instance.kernel[k, j]
                if p != 0.0:
                    coeffs[w_names[(k, j)]] = -inv * p
        else:
            rhs = params.beta * float(instance.rewards[k])
            coeffs[w_names[k]] = -inv
        rows.append(Constraint(f"price_{k}", coeffs, ">=", rhs))
    if triple:
        for (k, j), nm in w_names.items():
            rows.append(Constraint(f"excess_{k}_{j}", {nm: 1.0, "y": 1.0}, ">=",
                                   float(instance.rewards3[k, j])))
    else:
        for k, nm in w_names.items():
            rows.append(Constraint(f"excess_{k}", {nm: 1.0, "y": 1.0}, ">=",
                                   float(instance.rewards[k])))
    return LinearProgram(f"{instance.name}-level", "min", {"u0": 1.0},
                         tuple(variables), tuple(rows))


def build_sparsify_lp(instance, y_star, params, delta):
    """Re-optimize over occupation measures whose tail level stays y_star.

    Two quantile rows pin the law's CDF around y_star: at least alpha mass
    at or below it, and (through the slack x0 >= 0) at most alpha mass
    strictly below it. A basic optimal solution then has few nonzeros,
    which is what bounds the randomization count. The strictness the
    theory puts on x0 cannot be expressed in an LP; callers must treat
    x0 ~ 0 as a tie and keep their original measure.
    """
    x_names = _pair_var_names(instance)
    coeff = saddle_coefficients(instance, y_star, params)
    # r <= y* - delta on the instance's value grid is the same as r < y*;
    # the midpoint threshold is immune to rounding of y* - delta.
    below = y_star - (delta / 2.0 if delta is not None else 0.0)
    if instance.rewards is not None:
        at_w = (instance.rewards <= y_star).astype(float)
        below_w = (instance.rewards < below).astype(float) if delta is not None else np.zeros(instance.n_pairs)
    else:
        at_w = np.einsum("kj,kj->k", instance.kernel, (instance.rewards3 <= y_star).astype(float))
        if delta is not None:
            below_w = np.einsum("kj,kj->k", instance.kernel, (instance.rewards3 < below).astype(float))
        else:
            below_w = np.zeros(instance.n_pairs)
    variables = tuple(Variable(nm, 0.0, np.inf) for nm in x_names) + (Variable("x0", 0.0, np.inf),)
    rows = [
        Constraint("tail_at", {nm: -float(at_w[k]) for k, nm in enumerate(x_names) if at_w[k] != 0.0},
                   "<=", -params.alpha),
        Constraint("tail_below",
                   {**{nm: float(below_w[k]) for k, nm in enumerate(x_names) if below_w[k] != 0.0},
                    "x0": 1.0},
                   "=", params.alpha),
    ]
    rows.extend(_polytope_rows(instance, x_names))
    objective = {nm: float(coeff[k]) for k, nm in enumerate(x_names)}
    return LinearProgram(f"{instance.name}-sparsify(y={y_star:g})", "max", objective,
                         variables, tuple(rows))


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
    mag = abs(coef)
    return f"{sign} {mag:.17g} {name}".strip()


def _write_lp(lp, fh):
    fh.write(f"\\ {lp.name}\n")
    fh.write("Minimize\n" if lp.sense == "min" else "Maximize\n")
    terms = [_term_str(coef, nm, i == 0) for i, (nm, coef) in enumerate(lp.objective.items())]
    fh.write(" obj: " + " ".join(terms) + "\n")
    fh.write("Subject To\n")
    rel_map = {"<=": "<=", ">=": ">=", "=": "="}
    for c in lp.constraints:
        terms = [_term_str(coef, nm, i == 0) for i, (nm, coef) in enumerate(c.coeffs.items())]
        fh.write(f" {c.name}: " + " ".join(terms) + f" {rel_map[c.relation]} {c.rhs:.17g}\n")
    fh.write("Bounds\n")
    for v in lp.variables:
        if v.lb == 0.0 and v.ub == np.inf:
            continue
        if v.lb == -np.inf and v.ub == np.inf:
            fh.write(f" {v.name} free\n")
            continue
        lo = "-inf" if v.lb == -np.inf else f"{v.lb:.17g}"
        hi = "+inf" if v.ub == np.inf else f"{v.ub:.17g}"
        fh.write(f" {lo} <= {v.name} <= {hi}\n")
    fh.write("End\n")
