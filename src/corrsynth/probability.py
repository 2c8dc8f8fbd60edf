"""Finite joint distributions and information measures (all logs base 2).

The central type is :class:`JointPmf`: a dense table over named axes, each
axis carrying an ordered :class:`Alphabet`.  Conditionals keep an explicit
``defined`` mask so that cells conditioned on zero-probability events are
never silently read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .budget import check_budget

#: absolute tolerance used when validating that a table sums to one
NORMALIZATION_ATOL = 1e-9
#: tolerance for exactness claims (recomposition, marginal preservation, ...)
EXACT_ATOL = 1e-12


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite alphabet; symbols are strings, positions are the codes."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if len(self.symbols) == 0:
            raise ValueError("alphabet must have at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError(f"duplicate symbols in alphabet: {self.symbols}")

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        return self.symbols.index(symbol)


def _as_alphabet(spec) -> Alphabet:
    if isinstance(spec, Alphabet):
        return spec
    if isinstance(spec, int):
        return Alphabet(tuple(str(i) for i in range(spec)))
    return Alphabet(tuple(str(s) for s in spec))


@dataclass(frozen=True)
class JointPmf:
    """Joint PMF over named axes, stored as a dense numpy table.

    ``table.shape`` matches the alphabet sizes in axis order.  Entries are
    nonnegative and sum to one within :data:`NORMALIZATION_ATOL` (checked at
    construction; use :meth:`from_table` to renormalize near-misses).
    """

    names: tuple[str, ...]
    alphabets: tuple[Alphabet, ...]
    table: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(self.names) != len(self.alphabets):
            raise ValueError("names and alphabets must have equal length")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate axis names: {self.names}")
        tab = np.asarray(self.table, dtype=float)
        expected = tuple(a.size for a in self.alphabets)
        if tab.shape != expected:
            raise ValueError(f"table shape {tab.shape} != alphabet sizes {expected}")
        if not np.isfinite(tab).all():
            raise ValueError("non-finite probability in table")
        if np.any(tab < 0):
            raise ValueError("negative probability in table")
        total = float(tab.sum())
        if abs(total - 1.0) > NORMALIZATION_ATOL:
            raise ValueError(f"table sums to {total!r}, not 1")
        object.__setattr__(self, "table", tab)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_table(cls, names, table, alphabets=None) -> "JointPmf":
        """Build a PMF, renormalizing if the total is within 1e-9 of one.

        Totals further from one are rejected: that is a malformed input, not
        rounding noise.
        """
        tab = np.asarray(table, dtype=float)
        names = tuple(names)
        if alphabets is None:
            alphabets = tuple(_as_alphabet(s) for s in tab.shape)
        else:
            alphabets = tuple(_as_alphabet(a) for a in alphabets)
        total = float(tab.sum())
        # NaN-safe: a non-finite entry makes the total non-finite
        if not abs(total - 1.0) <= NORMALIZATION_ATOL:
            raise ValueError(f"table sums to {total!r}; outside renormalization tolerance")
        return cls(names, alphabets, tab / total)

    # -- bookkeeping -------------------------------------------------------

    def axis(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no axis {name!r}; have {self.names}") from None

    def alphabet(self, name: str) -> Alphabet:
        return self.alphabets[self.axis(name)]

    # -- core operations ---------------------------------------------------

    def marginalize(self, keep) -> "JointPmf":
        """Sum out every axis not named in ``keep``; result axes follow ``keep`` order."""
        keep = tuple(keep)
        idx = [self.axis(n) for n in keep]
        drop = tuple(i for i in range(len(self.names)) if i not in idx)
        summed = self.table.sum(axis=drop) if drop else self.table
        kept_order = [i for i in range(len(self.names)) if i not in drop]
        perm = [kept_order.index(i) for i in idx]
        return JointPmf(keep, tuple(self.alphabets[i] for i in idx), summed.transpose(perm))

    def condition(self, given) -> "CondPmf":
        """Split axes into (given, rest) and return p(rest | given).

        Rows whose conditioning cell has zero probability are marked
        undefined rather than filled with an arbitrary distribution.
        """
        given = tuple(given)
        g_idx = [self.axis(n) for n in given]
        o_idx = [i for i in range(len(self.names)) if i not in g_idx]
        if not o_idx:
            raise ValueError("conditioning on every axis leaves nothing to distribute")
        perm = g_idx + o_idx
        tab = self.table.transpose(perm)
        g_shape = tab.shape[: len(g_idx)]
        o_axes = tuple(range(len(g_idx), tab.ndim))
        marg = tab.sum(axis=o_axes)
        defined = marg > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = tab / marg.reshape(g_shape + (1,) * len(o_idx))
        cond[~defined] = np.nan
        return CondPmf(
            given_names=given,
            given_alphabets=tuple(self.alphabets[i] for i in g_idx),
            out_names=tuple(self.names[i] for i in o_idx),
            out_alphabets=tuple(self.alphabets[i] for i in o_idx),
            table=cond,
            defined=defined,
        )


@dataclass(frozen=True)
class CondPmf:
    """Conditional PMF p(out | given) with an explicit definedness mask."""

    given_names: tuple[str, ...]
    given_alphabets: tuple[Alphabet, ...]
    out_names: tuple[str, ...]
    out_alphabets: tuple[Alphabet, ...]
    table: np.ndarray = field(repr=False)
    defined: np.ndarray = field(repr=False)

    def __post_init__(self):
        tab = np.asarray(self.table, dtype=float)
        expected = tuple(a.size for a in self.given_alphabets) + tuple(
            a.size for a in self.out_alphabets
        )
        if tab.shape != expected:
            raise ValueError(f"table shape {tab.shape} != {expected}")
        mask = np.asarray(self.defined, dtype=bool)
        if mask.shape != tuple(a.size for a in self.given_alphabets):
            raise ValueError("defined mask shape mismatch")
        if not np.isfinite(tab[mask]).all():
            raise ValueError("non-finite conditional probability in a defined row")
        o_axes = tuple(range(len(self.given_alphabets), tab.ndim))
        sums = np.nansum(tab, axis=o_axes)
        ok = np.where(mask, np.abs(sums - 1.0) <= NORMALIZATION_ATOL, True)
        if not np.all(ok):
            raise ValueError("conditional rows must sum to 1 where defined")
        if np.any(np.nan_to_num(tab, nan=0.0) < 0):
            raise ValueError("negative conditional probability")
        object.__setattr__(self, "table", tab)
        object.__setattr__(self, "defined", mask)

    @classmethod
    def from_rows(cls, given_names, given_alphabets, out_names, out_alphabets, table) -> "CondPmf":
        """Conditional from a fully specified stochastic table (all rows defined)."""
        given_alphabets = tuple(_as_alphabet(a) for a in given_alphabets)
        out_alphabets = tuple(_as_alphabet(a) for a in out_alphabets)
        tab = np.asarray(table, dtype=float)
        mask = np.ones(tuple(a.size for a in given_alphabets), dtype=bool)
        return cls(tuple(given_names), given_alphabets, tuple(out_names), out_alphabets, tab, mask)


# --------------------------------------------------------------------------
# information measures
# --------------------------------------------------------------------------


def table_entropy(t: np.ndarray, ndim: int | None = None):
    """Shannon entropy in bits of a probability table, 0 log 0 = 0.

    The table is its last ``ndim`` axes (all of them by default), and any
    axes before them index a stack of tables: the result is then an array of
    their shape, else a float.  Each table's terms, empty cells included as
    0, are summed along one flattened axis, so a table's entropy does not
    depend on the stack it sits in.
    """
    t = np.asarray(t, dtype=float)
    cells = t.reshape(t.shape[: t.ndim - (t.ndim if ndim is None else ndim)] + (-1,))
    logs = np.log2(cells, out=np.zeros_like(cells), where=cells > 0)
    h = -(cells * logs).sum(axis=-1)
    return float(h) if h.ndim == 0 else h


def entropy(p: JointPmf, axes=None) -> float:
    """Shannon entropy in bits of the named axes (all axes if None)."""
    return table_entropy((p if axes is None else p.marginalize(tuple(axes))).table)


def mutual_information(p: JointPmf, a, b) -> float:
    """I(A;B) in bits; ``a`` and ``b`` are axis names or lists of names."""
    return conditional_mutual_information(p, a, b, ())


def conditional_mutual_information(p: JointPmf, a, b, c) -> float:
    """I(A;B|C) = H(AC) + H(BC) - H(ABC) - H(C), in bits."""
    a = (a,) if isinstance(a, str) else tuple(a)
    b = (b,) if isinstance(b, str) else tuple(b)
    c = (c,) if isinstance(c, str) else tuple(c)
    if set(a) & set(b) or set(a) & set(c) or set(b) & set(c):
        raise ValueError("axis groups must be disjoint")
    h_ac = entropy(p, a + c)
    h_bc = entropy(p, b + c)
    h_abc = entropy(p, a + b + c)
    h_c = entropy(p, c) if c else 0.0
    value = h_ac + h_bc - h_abc - h_c
    # exact zero for structurally independent cases is not guaranteed by
    # floating point; leave tiny negatives to the caller's tolerance
    return float(value)


def total_variation(p: JointPmf, q: JointPmf) -> float:
    """Total variation distance (1/2) * sum |p - q|; axes must match."""
    if p.names != q.names or p.alphabets != q.alphabets:
        raise ValueError("total_variation requires identical axes and alphabets")
    diff = p.table - q.table
    return 0.5 * float(np.abs(diff, out=diff).sum())


# --------------------------------------------------------------------------
# product (n-letter) extensions
# --------------------------------------------------------------------------


class ProductPmf:
    """Lazy n-fold product of a single-letter joint PMF.

    Holds the letter law and the blocklength; :meth:`table` materializes the
    n-letter table (budget-guarded) for exact TV work.
    """

    def __init__(self, base: JointPmf, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.base = base
        self.n = int(n)

    def table(self, budget: int | None = None) -> np.ndarray:
        """New dense table over per-axis sequence codes (:func:`letter_product`)."""
        terms = int(np.prod([float(a.size) ** self.n for a in self.base.alphabets]))
        check_budget(terms, budget, what="product extension")
        return letter_product([self.base.table] * self.n)


def letter_product(tables) -> np.ndarray:
    """New dense table of Π_i tables[i], the factors multiplied in letter order.

    Each axis indexes words over that axis of the letter tables, coded
    big-endian: ``x_1..x_n`` on an axis of size ``s`` is ``sum x_i * s**(n-i)``.
    """
    out = np.array(tables[0], dtype=float)
    k = out.ndim
    for base in tables[1:]:
        # append one letter position per axis: (S_i) x (s_i) -> (S_i * s_i).
        # The products go straight into the result seen as (S_1, s_1, S_2,
        # s_2, ...), so no full-size outer product is transposed and copied.
        grown = np.empty([big * small for big, small in zip(out.shape, base.shape)])
        np.multiply(
            np.expand_dims(out, tuple(range(1, 2 * k, 2))),
            np.expand_dims(base, tuple(range(0, 2 * k, 2))),
            out=grown.reshape([d for pair in zip(out.shape, base.shape) for d in pair]),
        )
        out = grown
    return out
