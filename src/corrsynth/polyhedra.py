"""Exact rational linear-inequality systems and Fourier-Motzkin projection.

Rows have the form

    sum_i coeffs[i] * var_i  >=  sum_j sym_coeffs[j] * const_j + const,

with every coefficient a :class:`fractions.Fraction`.  Constants are *named
symbols* (mutual-information quantities, slack terms) that stay symbolic
through elimination, so a projected system can be inspected before binding
numbers to the symbols.

Besides projection, the module carries an exact two-phase simplex used for
membership checks with per-row certificates and for redundancy
certification.  All arithmetic is rational; no floats enter any decision.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

# ---------------------------------------------------------------------------
# rows and systems
# ---------------------------------------------------------------------------


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError(f"refusing float {x!r}; pass int, str or Fraction")
    return Fraction(x)


@dataclass(frozen=True, order=True)
class LinearRow:
    """One inequality ``coeffs . vars >= sym_coeffs . constants + const``."""

    coeffs: tuple[Fraction, ...]
    sym_coeffs: tuple[Fraction, ...]
    const: Fraction

    def scaled(self, factor: Fraction) -> "LinearRow":
        if factor <= 0:
            raise ValueError("rows may only be scaled by positive factors")
        return LinearRow(
            tuple(c * factor for c in self.coeffs),
            tuple(s * factor for s in self.sym_coeffs),
            self.const * factor,
        )

    def plus(self, other: "LinearRow") -> "LinearRow":
        return LinearRow(
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
            tuple(a + b for a, b in zip(self.sym_coeffs, other.sym_coeffs)),
            self.const + other.const,
        )

    def normalized(self) -> "LinearRow":
        """Scale by the positive rational making entries coprime integers."""
        entries = list(self.coeffs) + list(self.sym_coeffs) + [self.const]
        denoms = lcm(*(e.denominator for e in entries)) if entries else 1
        scaled = [e * denoms for e in entries]
        numers = [abs(int(e)) for e in scaled if e != 0]
        if not numers:
            return LinearRow(self.coeffs, self.sym_coeffs, self.const)
        g = gcd(*numers)
        return self.scaled(Fraction(denoms, g))

    @property
    def is_trivial(self) -> bool:
        """0 >= nonpositive rational: always true, carries no information."""
        return (
            all(c == 0 for c in self.coeffs)
            and all(s == 0 for s in self.sym_coeffs)
            and self.const <= 0
        )


@dataclass(frozen=True)
class LinIneqSystem:
    """A conjunction of :class:`LinearRow` over named variables and constants."""

    variables: tuple[str, ...]
    constants: tuple[str, ...]
    rows: tuple[LinearRow, ...]

    def __post_init__(self):
        seen = set(self.variables) | set(self.constants)
        if len(seen) != len(self.variables) + len(self.constants):
            raise ValueError("variable/constant names must be distinct")
        for row in self.rows:
            if len(row.coeffs) != len(self.variables):
                raise ValueError("row coefficient arity mismatch")
            if len(row.sym_coeffs) != len(self.constants):
                raise ValueError("row symbol arity mismatch")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def build(cls, variables, constants, rows) -> "LinIneqSystem":
        """Rows as dicts: {'vars': {name: coeff}, 'syms': {name: coeff}, 'const': c}.

        Coefficients may be ints, strings like ``"3/4"`` or Fractions.
        """
        variables = tuple(variables)
        constants = tuple(constants)
        built = []
        for spec in rows:
            coeffs = [Fraction(0)] * len(variables)
            for name, c in spec.get("vars", {}).items():
                coeffs[variables.index(name)] = _frac(c)
            syms = [Fraction(0)] * len(constants)
            for name, c in spec.get("syms", {}).items():
                syms[constants.index(name)] = _frac(c)
            built.append(LinearRow(tuple(coeffs), tuple(syms), _frac(spec.get("const", 0))))
        return cls(variables, constants, tuple(built))

    # -- queries ---------------------------------------------------------------

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}; have {self.variables}") from None

    def substitute(self, bindings: dict[str, Fraction]) -> "LinIneqSystem":
        """Bind some constants to rationals, folding them into the scalar term."""
        keep = tuple(c for c in self.constants if c not in bindings)
        rows = []
        for row in self.rows:
            const = row.const
            syms = []
            for name, coeff in zip(self.constants, row.sym_coeffs):
                if name in bindings:
                    const += coeff * _frac(bindings[name])
                else:
                    syms.append(coeff)
            rows.append(LinearRow(row.coeffs, tuple(syms), const))
        return LinIneqSystem(self.variables, keep, _clean_rows(rows))


def _clean_rows(rows) -> tuple[LinearRow, ...]:
    """Normalize, drop trivially-true rows and exact duplicates, keep the
    tightest rhs among rows sharing a lhs, sort deterministically.

    Contradictory constant rows (0 >= positive) are *retained*: infeasibility
    must surface, not vanish.
    """
    tight: dict[tuple, LinearRow] = {}
    for row in rows:
        row = row.normalized()
        if row.is_trivial:
            continue
        key = (row.coeffs, row.sym_coeffs)
        old = tight.get(key)
        if old is None or row.const > old.const:
            tight[key] = row
    return tuple(sorted(tight.values()))


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Projection:
    """The result of :func:`fm_eliminate_all`: the system over the variables kept."""

    system: LinIneqSystem


def fm_eliminate(system: LinIneqSystem, variable: str) -> LinIneqSystem:
    """Project out one variable; see :func:`fm_eliminate_all` for details."""
    return fm_eliminate_all(system, [variable]).system


def fm_eliminate_all(system: LinIneqSystem, variables) -> Projection:
    """Fourier-Motzkin projection onto the complement of ``variables``.

    For the eliminated variable t, rows split into lower bounds (positive
    coefficient on t), upper bounds (negative), and neutral rows.  Every
    (lower, upper) pair combines with positive multipliers chosen to cancel
    t; neutral rows pass through.  Output rows are normalized, deduplicated
    and sorted, so results are independent of input row order.
    """
    current = system
    for name in variables:
        j = current.var_index(name)
        lowers = [row for row in current.rows if row.coeffs[j] > 0]
        uppers = [row for row in current.rows if row.coeffs[j] < 0]
        produced = [_drop_var(row, j) for row in current.rows if row.coeffs[j] == 0]
        for lrow in lowers:
            for urow in uppers:
                combined = lrow.scaled(-urow.coeffs[j]).plus(urow.scaled(lrow.coeffs[j]))
                produced.append(_drop_var(combined, j))
        new_vars = current.variables[:j] + current.variables[j + 1 :]
        current = LinIneqSystem(new_vars, current.constants, _clean_rows(produced))
    return Projection(current)


def _drop_var(row: LinearRow, j: int) -> LinearRow:
    if row.coeffs[j] != 0:
        raise AssertionError("variable not cancelled")
    return LinearRow(row.coeffs[:j] + row.coeffs[j + 1 :], row.sym_coeffs, row.const)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def lp_membership(
    system: LinIneqSystem,
    point: dict[str, Fraction],
    bindings: dict[str, Fraction] | None = None,
) -> tuple[bool, list[int]]:
    """Exact membership check; returns (member, indices of violated rows).

    ``point`` assigns every variable, ``bindings`` every constant.  Boundary
    points are members: each row is checked with >=, no tolerance.
    """
    bindings = bindings or {}
    missing = [v for v in system.variables if v not in point]
    if missing:
        raise ValueError(f"point misses variables {missing}")
    missing = [c for c in system.constants if c not in bindings]
    if missing:
        raise ValueError(f"bindings miss constants {missing}")
    xs = [_frac(point[v]) for v in system.variables]
    ks = [_frac(bindings[c]) for c in system.constants]
    violated = []
    for idx, row in enumerate(system.rows):
        lhs = sum(c * x for c, x in zip(row.coeffs, xs))
        rhs = sum(s * k for s, k in zip(row.sym_coeffs, ks)) + row.const
        if lhs < rhs:
            violated.append(idx)
    return (not violated, violated)


# ---------------------------------------------------------------------------
# exact two-phase simplex (Bland's rule, Fraction arithmetic)
# ---------------------------------------------------------------------------


def _pivot(tableau, basis, row, col):
    piv = tableau[row][col]
    tableau[row] = [x / piv for x in tableau[row]]
    for i, line in enumerate(tableau):
        if i != row and line[col] != 0:
            f = line[col]
            tableau[i] = [a - f * b for a, b in zip(line, tableau[row])]
    basis[row] = col


def _run_simplex(tableau, basis, ncols) -> str:
    """Minimize with Bland's anti-cycling rule; tableau's last line holds
    reduced costs and (negated) objective value."""
    while True:
        cost = tableau[-1]
        enter = next((j for j in range(ncols) if cost[j] < 0), None)
        if enter is None:
            return "optimal"
        pick = None
        for i in range(len(tableau) - 1):
            coef = tableau[i][enter]
            if coef > 0:
                ratio = tableau[i][-1] / coef
                if pick is None or ratio < pick[0] or (ratio == pick[0] and basis[i] < basis[pick[1]]):
                    pick = (ratio, i)
        if pick is None:
            return "unbounded"
        _pivot(tableau, basis, pick[1], enter)


def lp_minimize(rows, n_vars: int, objective) -> tuple[str, Fraction | None]:
    """Exactly minimize ``objective . x`` subject to ``coeffs . x >= rhs`` rows.

    Variables are free; internally each splits into a difference of
    nonnegatives and every row gains a surplus column.  Returns
    ``(status, value)`` with status one of optimal/unbounded/infeasible.
    """
    rows = [(tuple(_frac(c) for c in cs), _frac(b)) for cs, b in rows]
    objective = [_frac(c) for c in objective]
    if any(len(cs) != n_vars for cs, _ in rows) or len(objective) != n_vars:
        raise ValueError("arity mismatch")
    nreal = 2 * n_vars + len(rows)  # u, v, surplus
    m = len(rows)
    ncols = nreal + m  # + artificials
    tableau = []
    for i, (cs, b) in enumerate(rows):
        line = [Fraction(0)] * (ncols + 1)
        sign = 1 if b >= 0 else -1
        for j, c in enumerate(cs):
            line[j] = sign * c
            line[n_vars + j] = -sign * c
        line[2 * n_vars + i] = sign * Fraction(-1)
        line[nreal + i] = Fraction(1)
        line[-1] = sign * b
        tableau.append(line)
    basis = [nreal + i for i in range(m)]
    # phase 1: minimize artificial sum
    cost = [Fraction(0)] * (ncols + 1)
    for i in range(m):
        cost = [a - b for a, b in zip(cost, tableau[i])]
        cost[nreal + i] += Fraction(1)
    tableau.append(cost)
    status = _run_simplex(tableau, basis, ncols)
    if status != "optimal" or tableau[-1][-1] != 0:
        return ("infeasible", None)
    tableau.pop()
    # drive artificials out of the basis, dropping dependent rows
    for i in range(m - 1, -1, -1):
        if basis[i] >= nreal:
            col = next((j for j in range(nreal) if tableau[i][j] != 0), None)
            if col is None:
                tableau.pop(i)
                basis.pop(i)
            else:
                _pivot(tableau, basis, i, col)
    tableau = [line[:nreal] + [line[-1]] for line in tableau]
    # phase 2
    cost = [Fraction(0)] * (nreal + 1)
    for j in range(n_vars):
        cost[j] = objective[j]
        cost[n_vars + j] = -objective[j]
    for i, b in enumerate(basis):
        if cost[b] != 0:
            f = cost[b]
            cost = [a - f * c for a, c in zip(cost, tableau[i])]
    tableau.append(cost)
    status = _run_simplex(tableau, basis, nreal)
    if status == "unbounded":
        return ("unbounded", None)
    return ("optimal", -tableau[-1][-1])


# -- redundancy over the joint (variables + constants) space ------------------


def _joint_rows(system: LinIneqSystem):
    """Rows re-expressed over the joint space (variables ++ constants)."""
    return [
        (row.coeffs + tuple(-s for s in row.sym_coeffs), row.const) for row in system.rows
    ]


def row_redundant(system: LinIneqSystem, row: LinearRow) -> bool:
    """Is ``row`` implied by ``system`` for every value of the constants?

    Certified by exactly minimizing the row's lhs-rhs gap over the system's
    polyhedron in the joint (variables + constants) space.
    """
    rows = _joint_rows(system)
    n = len(system.variables) + len(system.constants)
    objective = list(row.coeffs) + [-s for s in row.sym_coeffs]
    status, value = lp_minimize(rows, n, objective)
    if status == "infeasible":
        return True
    if status == "unbounded":
        return False
    return value >= row.const


# ---------------------------------------------------------------------------
# JSON interchange (rationals as exact "p/q" strings)
# ---------------------------------------------------------------------------


def system_to_dict(system: LinIneqSystem) -> dict:
    return {
        "variables": list(system.variables),
        "constants": list(system.constants),
        "rows": [
            {
                "coeffs": [str(c) for c in row.coeffs],
                "syms": [str(s) for s in row.sym_coeffs],
                "const": str(row.const),
            }
            for row in system.rows
        ],
    }


def system_from_dict(d: dict) -> LinIneqSystem:
    try:
        rows = tuple(
            LinearRow(
                tuple(Fraction(c) for c in r["coeffs"]),
                tuple(Fraction(s) for s in r["syms"]),
                Fraction(r["const"]),
            )
            for r in d["rows"]
        )
        return LinIneqSystem(tuple(d["variables"]), tuple(d["constants"]), rows)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed system spec: {exc}") from exc


def write_system(path, system: LinIneqSystem) -> None:
    with open(path, "w") as fh:
        json.dump(system_to_dict(system), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_system(path) -> LinIneqSystem:
    with open(path) as fh:
        return system_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# canonical systems for the two synthesis settings
# ---------------------------------------------------------------------------

#: mutual-information symbols for the point-to-point setting
PTP_CONSTANTS = ("I_X_W", "I_W_Z", "I_XYZ_W")
#: conditional mutual-information symbols for the distributed setting
#: (all conditioned on the time-sharing variable) plus one shared slack symbol
DIST_CONSTANTS = (
    "I_X1_W1",
    "I_X2_W2",
    "I_X1X2W2Y_W1",
    "I_X1X2Y_W2",
    "I_W1_W2",
    "slack",
)


def ptp_pre_elimination_system() -> LinIneqSystem:
    """Point-to-point constraint set before projecting out the codebook rate.

    Variables: Rt (codebook rate), R (message rate), C (common randomness).
    Rows: Rt >= I(X;W);  Rt - R <= I(W;Z)  (the side-information binning
    rebate);  Rt + C >= I(XYZ;W)  (soft covering of the full triple).
    """
    return LinIneqSystem.build(
        ("Rt", "R", "C"),
        PTP_CONSTANTS,
        [
            {"vars": {"Rt": 1}, "syms": {"I_X_W": 1}},
            {"vars": {"R": 1, "Rt": -1}, "syms": {"I_W_Z": -1}},
            {"vars": {"Rt": 1, "C": 1}, "syms": {"I_XYZ_W": 1}},
        ],
    )


def ptp_theorem_system() -> LinIneqSystem:
    """Closed-form point-to-point region over (R, C)."""
    return LinIneqSystem.build(
        ("R", "C"),
        PTP_CONSTANTS,
        [
            {"vars": {"R": 1}, "syms": {"I_X_W": 1, "I_W_Z": -1}},
            {"vars": {"R": 1, "C": 1}, "syms": {"I_XYZ_W": 1, "I_W_Z": -1}},
        ],
    )


def dist_pre_elimination_system() -> LinIneqSystem:
    """Distributed constraint set before projecting out per-encoder quantities.

    Variables: per-encoder codebook rates Rt1/Rt2, per-encoder randomness
    shares C1/C2, message rates R1/R2, and the total common randomness C.
    The shared ``slack`` symbol carries the derivation's vanishing terms with
    their multiplicities (4, 4, 1, 1, 3); bind it to 0 to recover the clean
    region.

    The split C1/C2 is left unconstrained: the underlying existence lemma
    quantifies the shares freely.  Adding C1 >= 0 and C2 >= 0 provably
    *shrinks* the projection below the theorem region; that sign-constrained
    variant lives in the tests (``tests/_oracles.py``), which check the
    shrinkage.
    """
    rows = [
        {"vars": {"Rt1": 1}, "syms": {"I_X1_W1": 1, "slack": 4}},
        {"vars": {"Rt2": 1}, "syms": {"I_X2_W2": 1, "slack": 4}},
        {"vars": {"Rt1": 1, "C1": 1}, "syms": {"I_X1X2W2Y_W1": 1, "slack": 1}},
        {"vars": {"Rt2": 1, "C2": 1}, "syms": {"I_X1X2Y_W2": 1, "slack": 1}},
        {
            "vars": {"R1": 1, "R2": 1, "Rt1": -1, "Rt2": -1},
            "syms": {"I_W1_W2": -1, "slack": -3},
        },
        {"vars": {"R1": 1}},
        {"vars": {"R2": 1}},
        {"vars": {"Rt1": 1, "R1": -1}},
        {"vars": {"Rt2": 1, "R2": -1}},
        {"vars": {"C": 1, "C1": -1, "C2": -1}},
    ]
    return LinIneqSystem.build(
        ("Rt1", "Rt2", "C1", "C2", "R1", "R2", "C"), DIST_CONSTANTS, rows
    )


def dist_theorem_system() -> LinIneqSystem:
    """Closed-form distributed region over (R1, R2, C)."""
    return LinIneqSystem.build(
        ("R1", "R2", "C"),
        DIST_CONSTANTS,
        [
            {"vars": {"R1": 1}, "syms": {"I_X1_W1": 1, "I_W1_W2": -1}},
            {"vars": {"R2": 1}, "syms": {"I_X2_W2": 1, "I_W1_W2": -1}},
            {
                "vars": {"R1": 1, "R2": 1},
                "syms": {"I_X1_W1": 1, "I_X2_W2": 1, "I_W1_W2": -1},
            },
            {
                "vars": {"R1": 1, "R2": 1, "C": 1},
                "syms": {"I_X1X2W2Y_W1": 1, "I_X1X2Y_W2": 1, "I_W1_W2": -1},
            },
        ],
    )


#: order in which the auxiliary quantities are projected out
DIST_ELIMINATION_ORDER = ("Rt1", "Rt2", "C1", "C2")
