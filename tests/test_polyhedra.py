"""Exact-rational inequality systems: projection, membership, redundancy."""

import json
import time
from fractions import Fraction as F

import numpy as np
import pytest

from corrsynth.polyhedra import (
    DIST_ELIMINATION_ORDER,
    LinearRow,
    LinIneqSystem,
    dist_pre_elimination_system,
    dist_theorem_system,
    fm_eliminate,
    fm_eliminate_all,
    lp_membership,
    lp_minimize,
    ptp_pre_elimination_system,
    ptp_theorem_system,
    read_system,
    row_redundant,
    system_from_dict,
    system_to_dict,
    write_system,
)

from _oracles import (
    feasible_with,
    is_contradiction,
    lp_feasible,
    prune_redundant,
    restrict,
    sign_constrained_dist_system,
)

rng = np.random.default_rng(20260815)


def rational(lo, hi, denom=8):
    """Random Fraction in [lo, hi] with the given denominator grid."""
    return F(int(rng.integers(lo * denom, hi * denom + 1)), denom)


# ---------------------------------------------------------------------------
# rows
# ---------------------------------------------------------------------------


def test_row_normalization_clears_denominators():
    row = LinearRow((F(1, 2), F(-3, 4)), (F(5, 6),), F(0))
    norm = row.normalized()
    assert norm.coeffs == (F(6), F(-9))
    assert norm.sym_coeffs == (F(10),)
    # already-coprime integer rows are fixed points
    assert norm.normalized() == norm


def test_row_normalization_preserves_direction():
    row = LinearRow((F(-2), F(4)), (), F(6))
    norm = row.normalized()
    assert norm == LinearRow((F(-1), F(2)), (), F(3))


def test_trivial_and_contradictory_rows():
    assert LinearRow((F(0),), (), F(-1)).is_trivial
    assert LinearRow((F(0),), (), F(0)).is_trivial
    assert not LinearRow((F(0),), (), F(1)).is_trivial  # 0 >= 1 is a contradiction
    assert is_contradiction(LinearRow((F(0),), (), F(1)))
    assert not LinearRow((F(1),), (), F(1)).is_trivial


def test_scaling_rejects_nonpositive_factor():
    with pytest.raises(ValueError):
        LinearRow((F(1),), (), F(0)).scaled(F(-1))


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------


def test_build_and_clean():
    sys_ = LinIneqSystem.build(
        ("x", "y"),
        (),
        [
            {"vars": {"x": 1}, "const": 1},
            {"vars": {"x": 2}, "const": 2},  # same after normalization
            {"vars": {"x": 1}, "const": "1/2"},  # weaker rhs on same lhs -> kept separately
        ],
    )
    # build does not deduplicate; elimination does
    assert len(sys_.rows) == 3
    projected = fm_eliminate_all(sys_, []).system
    assert projected.rows == sys_.rows  # no-op projection leaves rows alone


def test_duplicate_names_rejected():
    with pytest.raises(ValueError):
        LinIneqSystem(("x", "x"), (), ())
    with pytest.raises(ValueError):
        LinIneqSystem(("x",), ("x",), ())


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        LinIneqSystem.build(("x",), (), [{"vars": {"x": 0.5}}])


def test_substitute_folds_constants():
    sys_ = LinIneqSystem.build(
        ("R",), ("a", "b"), [{"vars": {"R": 1}, "syms": {"a": 1, "b": -1}, "const": "1/3"}]
    )
    bound = sys_.substitute({"a": F(2), "b": F(1, 3)})
    assert bound.constants == ()
    assert bound.rows[0].const == F(2) - F(1, 3) + F(1, 3)
    partial = sys_.substitute({"a": F(2)})
    assert partial.constants == ("b",)


def test_restrict_fixes_variables():
    sys_ = LinIneqSystem.build(
        ("x", "y"), (), [{"vars": {"x": 1, "y": 2}, "const": 3}]
    )
    restricted = restrict(sys_, {"y": F(1)})
    assert restricted.variables == ("x",)
    assert restricted.rows[0] == LinearRow((F(1),), (), F(1))


# ---------------------------------------------------------------------------
# exact simplex
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "rows,n,obj,expect",
    [
        ([((F(1),), F(3))], 1, [F(1)], ("optimal", F(3))),
        (
            [((F(1), F(0)), F(1)), ((F(0), F(1)), F(2)), ((F(1), F(1)), F(4))],
            2,
            [F(1), F(1)],
            ("optimal", F(4)),
        ),
        ([((F(1),), F(1)), ((F(-1),), F(0))], 1, [F(1)], ("infeasible", None)),
        ([((F(1),), F(0))], 1, [F(-1)], ("unbounded", None)),
        ([((F(1),), F(2)), ((F(-1),), F(-2))], 1, [F(1)], ("optimal", F(2))),
        (
            [((F(1), F(1)), F(5, 2)), ((F(1), F(-1)), F(-1, 3))],
            2,
            [F(3), F(2)],
            ("optimal", F(73, 12)),
        ),
    ],
)
def test_lp_minimize_known_programs(rows, n, obj, expect):
    assert lp_minimize(rows, n, obj) == expect


def test_lp_minimize_degenerate_terminates():
    # pile of redundant and mutually-binding rows around a single point
    rows = [
        ((F(1), F(0)), F(0)),
        ((F(-1), F(0)), F(0)),
        ((F(0), F(1)), F(0)),
        ((F(0), F(-1)), F(0)),
        ((F(1), F(1)), F(0)),
        ((F(2), F(3)), F(0)),
        ((F(-5), F(-7)), F(0)),
    ]
    assert lp_minimize(rows, 2, [F(1), F(1)]) == ("optimal", F(0))


def test_lp_feasible_matches_minimize():
    assert lp_feasible([((F(1),), F(1)), ((F(-1),), F(-3))], 1)
    assert not lp_feasible([((F(1),), F(1)), ((F(-1),), F(-1, 2))], 1)


def test_lp_rejects_arity_mismatch():
    with pytest.raises(ValueError):
        lp_minimize([((F(1), F(1)), F(0))], 1, [F(1)])


# ---------------------------------------------------------------------------
# Fourier-Motzkin
# ---------------------------------------------------------------------------


def test_fm_textbook_projection():
    # {x >= 1, y >= x, y <= 5}: eliminating y leaves 1 <= x <= 5
    sys_ = LinIneqSystem.build(
        ("x", "y"),
        (),
        [
            {"vars": {"x": 1}, "const": 1},
            {"vars": {"y": 1, "x": -1}},
            {"vars": {"y": -1}, "const": -5},
        ],
    )
    out = fm_eliminate(sys_, "y")
    assert out.variables == ("x",)
    assert set(out.rows) == {
        LinearRow((F(1),), (), F(1)),
        LinearRow((F(-1),), (), F(-5)),
    }


def test_fm_detects_infeasibility():
    # x >= 3 and x <= 1 collapse to the contradiction 0 >= 2
    sys_ = LinIneqSystem.build(
        ("x",), (), [{"vars": {"x": 1}, "const": 3}, {"vars": {"x": -1}, "const": -1}]
    )
    out = fm_eliminate(sys_, "x")
    assert any(is_contradiction(row) for row in out.rows)


def test_fm_row_order_invariance():
    base = dist_pre_elimination_system()
    perm = rng.permutation(len(base.rows))
    shuffled = LinIneqSystem(
        base.variables, base.constants, tuple(base.rows[i] for i in perm)
    )
    a = fm_eliminate_all(base, DIST_ELIMINATION_ORDER).system
    b = fm_eliminate_all(shuffled, DIST_ELIMINATION_ORDER).system
    assert a.rows == b.rows


def test_fm_unknown_variable():
    with pytest.raises(KeyError):
        fm_eliminate(ptp_pre_elimination_system(), "nope")


@pytest.mark.parametrize("trial", range(8))
def test_fm_agrees_with_lp_witness_search(trial):
    """Projection membership == exact feasibility over the eliminated variable.

    Random integer systems over (x, y, t); t is projected out.  For sample
    points, (x, y) lies in the projection iff some t satisfies the original
    rows, which the exact simplex decides independently.
    """
    n_rows = int(rng.integers(3, 7))
    rows = []
    for _ in range(n_rows):
        coeffs = {
            name: int(c)
            for name, c in zip(("x", "y", "t"), rng.integers(-3, 4, size=3))
        }
        rows.append({"vars": coeffs, "const": int(rng.integers(-4, 5))})
    sys_ = LinIneqSystem.build(("x", "y", "t"), (), rows)
    projected = fm_eliminate(sys_, "t")
    for _ in range(25):
        point = {"x": rational(-5, 5), "y": rational(-5, 5)}
        member, _ = lp_membership(projected, point, {})
        fixed = restrict(sys_, point)
        witness = lp_feasible([(r.coeffs, r.const) for r in fixed.rows], 1)
        assert member == witness


# ---------------------------------------------------------------------------
# redundancy certification
# ---------------------------------------------------------------------------


def test_row_redundant_plain():
    sys_ = LinIneqSystem.build(("x",), (), [{"vars": {"x": 1}, "const": 1}])
    assert row_redundant(sys_, LinearRow((F(1),), (), F(0)))
    assert not row_redundant(sys_, LinearRow((F(1),), (), F(2)))


def test_row_redundant_symbolic_needs_domain_fact():
    # R >= a + b implies R >= a only when b is known nonnegative
    base = LinIneqSystem.build(
        ("R",), ("a", "b"), [{"vars": {"R": 1}, "syms": {"a": 1, "b": 1}}]
    )
    target = LinearRow((F(1),), (F(1), F(0)), F(0))
    assert not row_redundant(base, target)
    with_domain = LinIneqSystem(
        base.variables,
        base.constants,
        base.rows + (LinearRow((F(0),), (F(0), F(-1)), F(0)),),  # 0 >= -b
    )
    assert row_redundant(with_domain, target)


def test_prune_redundant():
    sys_ = LinIneqSystem.build(
        ("x",),
        (),
        [
            {"vars": {"x": 1}, "const": 1},
            {"vars": {"x": 1}, "const": 0},
            {"vars": {"x": 1}, "const": "1/2"},
        ],
    )
    pruned = prune_redundant(sys_)
    assert pruned.rows == (LinearRow((F(1),), (), F(1)),)


# ---------------------------------------------------------------------------
# canonical systems: point-to-point
# ---------------------------------------------------------------------------


def test_ptp_projection_reproduces_closed_form_exactly():
    projected = fm_eliminate(ptp_pre_elimination_system(), "Rt")
    theorem = ptp_theorem_system()
    assert projected.variables == theorem.variables
    assert set(projected.rows) == set(theorem.rows)


# ---------------------------------------------------------------------------
# canonical systems: distributed
# ---------------------------------------------------------------------------


def dist_domain_rows(system):
    """Facts guaranteed by the setting: rates and the overlap information
    are nonnegative."""
    return LinIneqSystem.build(
        system.variables,
        system.constants,
        [{"vars": {"R1": 1}}, {"vars": {"R2": 1}}, {"syms": {"I_W1_W2": -1}}],
    ).rows


def test_dist_projection_contains_theorem_rows_literally():
    projected = fm_eliminate_all(
        dist_pre_elimination_system(), DIST_ELIMINATION_ORDER
    ).system.substitute({"slack": F(0)})
    theorem = dist_theorem_system().substitute({"slack": F(0)})
    assert projected.variables == theorem.variables
    assert set(theorem.rows) <= set(projected.rows)


def test_dist_projection_equals_theorem_up_to_certified_redundancy():
    projected = fm_eliminate_all(
        dist_pre_elimination_system(), DIST_ELIMINATION_ORDER
    ).system.substitute({"slack": F(0)})
    theorem = dist_theorem_system().substitute({"slack": F(0)})
    reference = LinIneqSystem(
        theorem.variables, theorem.constants, theorem.rows + dist_domain_rows(theorem)
    )
    for row in projected.rows:
        assert row_redundant(reference, row)
    for row in theorem.rows:
        assert row_redundant(projected, row)


def test_dist_sign_constrained_split_strictly_shrinks():
    """C1 >= 0, C2 >= 0 must stay OUT of the pre-elimination system.

    With I(X1X2W2Y;W1|Q) = 1 and every other information 0, the closed-form
    region admits (R1, R2, C) = (0, 1, 0) -- but covering it forces a
    negative C1 share, so the sign-constrained projection rejects it.
    """
    bindings = {
        "I_X1_W1": F(0),
        "I_X2_W2": F(0),
        "I_X1X2W2Y_W1": F(1),
        "I_X1X2Y_W2": F(0),
        "I_W1_W2": F(0),
        "slack": F(0),
    }
    point = {"R1": F(0), "R2": F(1), "C": F(0)}
    theorem = dist_theorem_system().substitute(bindings)
    assert lp_membership(theorem, point, {})[0]

    default = fm_eliminate_all(
        dist_pre_elimination_system(), DIST_ELIMINATION_ORDER
    ).system.substitute(bindings)
    assert lp_membership(default, point, {})[0]
    assert feasible_with(
        restrict(dist_pre_elimination_system(), point), bindings
    )

    constrained = fm_eliminate_all(
        sign_constrained_dist_system(), DIST_ELIMINATION_ORDER
    ).system.substitute(bindings)
    assert not lp_membership(constrained, point, {})[0]
    assert not feasible_with(restrict(sign_constrained_dist_system(), point), bindings)


def test_dist_membership_agreement_on_random_rationals():
    """Numeric cross-check of the symbolic equivalence.

    100 random nonnegative rational bindings x 100 random points in the
    nonnegative orthant: the projection and the closed form agree exactly.
    """
    start = time.monotonic()
    projected = fm_eliminate_all(
        dist_pre_elimination_system(), DIST_ELIMINATION_ORDER
    ).system.substitute({"slack": F(0)})
    theorem = dist_theorem_system().substitute({"slack": F(0)})
    dom = dist_domain_rows(theorem)
    theorem = LinIneqSystem(theorem.variables, theorem.constants, theorem.rows + dom)
    local = np.random.default_rng(7041)
    disagreements = 0
    for _ in range(100):
        bindings = {
            "I_X1_W1": F(int(local.integers(0, 33)), 8),
            "I_X2_W2": F(int(local.integers(0, 33)), 8),
            "I_X1X2W2Y_W1": F(int(local.integers(0, 33)), 8),
            "I_X1X2Y_W2": F(int(local.integers(0, 33)), 8),
            "I_W1_W2": F(int(local.integers(0, 17)), 8),
        }
        proj_b = projected.substitute(bindings)
        thm_b = theorem.substitute(bindings)
        for _ in range(100):
            point = {
                "R1": F(int(local.integers(0, 41)), 8),
                "R2": F(int(local.integers(0, 41)), 8),
                "C": F(int(local.integers(0, 41)), 8),
            }
            if lp_membership(proj_b, point, {})[0] != lp_membership(thm_b, point, {})[0]:
                disagreements += 1
    assert disagreements == 0
    assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------------------
# membership interface
# ---------------------------------------------------------------------------


def test_membership_reports_violated_rows():
    sys_ = ptp_theorem_system()
    bindings = {"I_X_W": F(1), "I_W_Z": F(1, 2), "I_XYZ_W": F(2)}
    inside, viol = lp_membership(sys_, {"R": F(1), "C": F(1)}, bindings)
    assert inside and viol == []
    # boundary counts as inside
    inside, viol = lp_membership(sys_, {"R": F(1, 2), "C": F(1)}, bindings)
    assert inside
    inside, viol = lp_membership(sys_, {"R": F(0), "C": F(10)}, bindings)
    assert not inside and viol == [0]


def test_membership_requires_complete_assignments():
    sys_ = ptp_theorem_system()
    with pytest.raises(ValueError):
        lp_membership(sys_, {"R": F(0)}, {})
    with pytest.raises(ValueError):
        lp_membership(sys_, {"R": F(0), "C": F(0)}, {"I_X_W": F(0)})


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_system_json_round_trip_exact(tmp_path):
    sys_ = dist_pre_elimination_system()
    path = tmp_path / "system.json"
    write_system(path, sys_)
    again = read_system(path)
    assert again == sys_
    # rationals survive exactly
    tricky = LinIneqSystem(("x",), ("k",), (LinearRow((F(1, 3),), (F(-7, 11),), F(22, 7)),))
    assert system_from_dict(system_to_dict(tricky)) == tricky


def test_system_json_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"variables": ["x"], "rows": []}))
    with pytest.raises(ValueError):
        read_system(path)
