"""Exact homotopy solver for the weighted elastic net.

Minimizes, over (beta0, beta) and for fixed per-feature weights u, v > 0,

    (1/2) ||y - beta0 - X beta||^2
        + lam1 * sum_j u_j |beta_j| + (lam2 / 2) * sum_j v_j beta_j^2.

The solver fits the data it is given and reports coefficients on its scale.
Normalization enters through the weights, not a copy of X: the fit of
(X - c)/s with weights (u, v) is the fit of X with (s u, s^2 v), divided by
s, the centers absorbed by the unpenalized intercept (which the tests
exercise). Callers with a plan fit the raw data so, at lambda_max(data,
u=s u0); the solver knows nothing of plans.

The intercept is never penalized, so the solver works on the centered
problem and sets beta0 = mean(y) - mean(X)' beta; centering goes through the
column means, and only a design whose means dwarf its spread (centered once)
and the lam1 = 0 solve on a wide X copy X. With
c_j = x_j'r - lam2 v_j beta_j on the centered residual r, the optimum at
lam1 = lam has c_j = lam u_j sign(b_j) on the active set A and
|c_j| <= lam u_j off it. At fixed lam2 that optimum is piecewise linear in
lam (Rosset & Zhu, Ann. Statist. 2007): on a segment with signs s, beta_A
moves by M_A^{-1} (u_A s) per unit decrease of lam, where
M_A = X_A'X_A + lam2 diag(v_A). `fit` follows the path from lambda_max,
where beta = 0, down to the target lam1 (the LARS-lasso homotopy with joins
and drops of Efron et al., Ann. Statist. 2004). A segment ends where an
inactive column reaches its bound (join) or an active coefficient reaches
zero (drop). M_A^{-1} lives in one buffer per fit, updated by Schur
complements: a join adds a rank-1 term w w'/schur, a drop subtracts one.
While A holds at most _RANK columns each term is added at once. Beyond that
a term is kept pending, as one column of a pair of _RANK-column buffers,
and one matrix product folds in _RANK of them: adding a term rewrites all
|A|^2 entries, about ten times the cost of a product of M_A^{-1} with a
vector, and every such product reads the pending terms too. Each direction
and the final solve get one step of iterative refinement against M_A itself.

Every step, on any design and at any |A|, runs one schedule. The join or
drop that ended the step before has formed its direction in O(|A|) from that
step's refined one (LARS's own update), which is as near M_A^{-1} (u_A s)
as a fresh product; after a near join, a refusal, a rebuilt inverse, a
restart or a drop of the final solve the direction is a product with
M_A^{-1} instead. The step makes one product a of that unrefined direction
(X'X_A d), and the join search reads a. When a column joins before lam1,
the refinement and its w = M_A^{-1} x_A'x_j come from one product with the
|A| x 2 matrix [residual, x_A'x_j]; otherwise the refinement is a product
of its own. c moves by a, and its active entries are reset to lam u_A s.
The join search runs whole-array ufuncs over 2 x p arrays, none under a
where= mask: a bound that cannot be reached gets the time inf / 1. The path
starts with the first join at lambda_max made directly, M_A^{-1} = 1 / M_jj:
against an empty active set a live column's Schur complement is M_jj > 0,
so that join is never refused and needs none of a join's products.

The designs of the paper break general position, so events follow these
rules. A column within a relative 1e-10 of its bound counts as on it, and
joins at once if the direction takes it outward: ties at lambda_max, which
are part of the designs, join one after the other this way. A column whose
outward rate u_j - a_j is within a relative 1e-10 of zero, such as a
duplicate of an active column, is not moving outward. The column that just
dropped sits on its bound moving inward, so on the next segment only its
other bound is tested. A join whose Schur complement is at most 1e-10 of its
diagonal is refused until the next drop, since that column lies in the span
of the active ones (any column once |A| = n - 1); below 1e-6 the complement
is taken from a Cholesky factor of the bordered system rather than from the
updated inverse. A column with no variance is found once, at set-up: its
X'(y - mean y) is taken as zero and it never joins. A coefficient whose
final solve comes out against its sign is a drop the path missed by
round-off: it is dropped and the rest re-solved.

What depends on (x, y) alone is set up once per Dataset and kept on it: the
column means, the centered sums of squares x_j'x_j - n xbar_j^2 (which find
the columns with no variance and give every M_jj), mean(y), X'(y - mean y)
and, for a tall design (p <= n), the centered Gram X'X - n xbar xbar', built
once from one product X'X whose diagonal also gives the raw sums of squares,
so the Gram's diagonal is the centered sums of squares bit for bit. A
Dataset's arrays are read-only, and so are its set-up's, so this cannot go
stale. The weights, lam2 and a wide design's active columns belong to each
fit. `_Design` alone chooses between tall designs and wide ones (`fit_each`
only asks which one it has). On tall ones a join reads a row of the Gram
and a step costs O(p |A|). Wide ones keep the active columns contiguous, one
row of n floats each in the order of A, in a buffer that doubles with
M_A^{-1}'s as A grows: a join costs x_j'X_A (2n|A| flops), and a step
X'(X_A d - (xbar_A'd) 1), one pass over X plus 2n|A| flops. The first
column to join's x_j'X_A is formed before the step's refinement, and a step
that ends in a drop throws it away. No p x p array is made. lam1 = 0 is one
ridge solve (in the n-dimensional row space when p > n).

A tall design of at most three columns has its optimum in closed form by
cases (`_closed_form`). A dead column stays at zero, and the live columns
form a smaller design; with none live (p = 0 among them) the optimum is the
null model, as it is by the path's own test at lambda_max. Otherwise each
support S of the live columns with each sign pattern s is a case, beta_S =
adj(M_S) (c_S - lam1 u_S s) / det M_S, tried only where det M_S > _NEAR
prod_S M_jj (below that the path itself stops trusting its updated
inverse). A case holds only when each sign holds by more than _TIE of the
terms that cancel in its numerator, the products inside each cofactor
included, and each other live column is inside its bound by more than _TIE
of lam1 u_j and the terms of its correlation c_j - G_jS beta_S, each beta_q
taken at the size of its numerator's terms: so no support can differ from
the path's and at most one case holds, even near a knot of a near-singular
design, where round-off in beta_S would otherwise pass for room inside a
bound. Every support is tried first, largest first, with the signs of its
lam1 = 0 solution adj(M_S) c_S, and then with the other signs. A column
alone holds only with the sign of c_j, and its case is the soft threshold
ST(c_j, lam1 u_j) / M_jj; a design of one live column has no other case.
Where no case holds, as for two equal columns at equal u and lam2 = 0, at a
knot of the path (for one column, lam1 within _TIE below lambda_max) or for
a near-singular M_S, the homotopy (or the ridge solve) decides. At lam1 = 0
the case of all live columns is the ridge solve.

`fit_path` checks its weights once and calls `fit` once per grid point. At
alpha = 1 it hands each fit the homotopy of the fit before, which continues
down to the next point (a closed-form fit leaves it where it was); at
alpha < 1 lam2 moves with lambda, and each point starts from lambda_max.

`fit_each` fits one design at several penalties, one `fit` each, as a
scenario's delta arms need. On a wide design the pass over X is most of a
step, and it is memory-bound: X'Z for a C-ordered n x 2 Z costs about what
X'z does (~0.18 ms each at 500 x 1000 on one BLAS thread), so every arm with
lam1 > 0 gets its homotopy up front. Before arm i's `fit`, `fit_each` steps
it toward its own lam1, and each of those steps takes one step of the next
unfinished later arm toward that arm's lam1, both products from one X'Z
(`_Homotopy.step_with`); once no later arm is unfinished, arm i takes the
rest of its steps alone, so its `fit` starts at lam1 or at the step cap.
Pairs only: an n x 3 Z costs about three passes. Tall designs make no pass
over X (and those of at most three columns mostly have a closed form), so
their arms, like those with lam1 = 0, fit one by one.
A paired product equals the single one only to round-off, but a certified
fit's final solve depends on the path only through its active sets and
signs, which fix every update of M_A^{-1}: a join's w is its own column of
the product with [residual, x_A'x_j], which the residual's round-off does
not reach. So each arm's fit is the cold fit, bit for bit, and one stopped
by the step cap, which reports the path's own point, agrees to round-off.

Every fit ends with a KKT check on the data it was given: `converged` means
that max(kkt_residuals) / max_j |x_j'(y - mean y)| is at most 1e-8, where
x_j'r of a column with no variance is round-off and counts as zero. A fit
that reaches the step cap returns its last point, flagged, and never raises;
a continued path point that fails the check is redone from lambda_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from operator import mul

import numpy as np

from .dataset import Dataset
from .errors import DimensionMismatchError, DomainError

KKT_TOLERANCE = 1e-8  # largest scale-free KKT residual of a certified fit
_DEAD = 1e-12  # a constant column centers to round-off, not to zero
_TIE = 1e-10  # relative: a column this near its bound is on it; one moving out this slowly is not
_SCHUR = 1e-10  # smallest Schur complement, relative to the diagonal, of a join
_NEAR = 1e-6  # a Schur complement below this, relative, is recomputed by Cholesky
_WORN = 1e-9  # a relative refinement above this calls for a fresh M_A^{-1}
_BLOCK = 64  # initial room for active columns, before the buffers first double
_RANK = 32  # rank-1 updates of M_A^{-1} kept pending before one product folds them in


@dataclass(frozen=True)
class PenaltySpec:
    """Penalty levels lam1 (l1) and lam2 (quadratic) with optional weights."""

    lam1: float
    lam2: float = 0.0
    u: np.ndarray | None = None
    v: np.ndarray | None = None

    def __post_init__(self) -> None:
        _levels(self.lam1, self.lam2)
        for name in ("u", "v"):
            w = getattr(self, name)
            if w is not None:
                object.__setattr__(self, name, _weights(name, w))

    def _at(self, lam1: float, lam2: float) -> PenaltySpec:
        """This spec's weights at other levels: the levels are checked, and
        the weights, read-only copies checked when this spec was made, are
        shared unchecked. The one constructor of a spec from checked weights,
        so that a path checks its weights once, not at every point."""
        _levels(lam1, lam2)
        spec = object.__new__(PenaltySpec)
        spec.__dict__.update(lam1=lam1, lam2=lam2, u=self.u, v=self.v)
        return spec

    def resolve_weights(self, p: int) -> tuple[np.ndarray, np.ndarray]:
        """(u, v) for a design of p columns. Weights given were checked once,
        when the spec was made; a weight not given is the one read-only
        np.ones(p) shared by every fit of width p."""
        u = self.u if self.u is not None else _ones(p)
        v = self.v if self.v is not None else _ones(p)
        _length(u, p)
        _length(v, p)
        return u, v


def _levels(lam1: float, lam2: float) -> None:
    for name, value in (("lam1", lam1), ("lam2", lam2)):
        if not (math.isfinite(value) and value >= 0.0):
            raise DomainError(f"{name} must be finite and >= 0, got {value!r}")


@lru_cache(maxsize=8)
def _ones(p: int) -> np.ndarray:
    """The default weights, built once per p: a simulation fits many designs of one width."""
    w = np.ones(p)
    w.setflags(write=False)
    return w


def _weights(name: str, w, p: int | None = None) -> np.ndarray:
    """w as a read-only 1-d float array of positive, finite entries, and of
    length p when p is given; the one check of penalty weights, made once per
    PenaltySpec or lambda_max call. The array is a copy of its own, so the
    caller's stays writable whatever its layout. min(w) > 0 and max(w) < inf
    refuse NaN too, which both reductions propagate."""
    w = np.array(w, dtype=np.float64)
    if w.ndim != 1:
        raise DimensionMismatchError(f"{name} must be 1-d")
    if not (
        np.minimum.reduce(w, initial=math.inf) > 0.0
        and np.maximum.reduce(w, initial=0.0) < math.inf
    ):
        raise DomainError(f"{name} entries must be positive and finite")
    w.setflags(write=False)
    if p is not None:
        _length(w, p)
    return w


def _length(w: np.ndarray, p: int) -> None:
    if w.shape[0] != p:
        raise DimensionMismatchError(f"weights must have length {p}")


def from_mixing(alpha: float, lam: float, u=None, v=None) -> PenaltySpec:
    """Penalty from the mixing parameterization: lam1 = alpha*lam, lam2 = (1-alpha)*lam."""
    return PenaltySpec(*_mixing(alpha, lam), u=u, v=v)


def _mixing(alpha: float, lam: float) -> tuple[float, float]:
    """(lam1, lam2) = (alpha lam, (1 - alpha) lam), for alpha in [0, 1] and lam >= 0."""
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha!r}")
    if lam < 0.0:
        raise DomainError(f"lam must be >= 0, got {lam!r}")
    return alpha * lam, (1.0 - alpha) * lam


@dataclass(frozen=True)
class FitResult:
    """Solver output.

    beta/beta0 are on the scale of the data the fit received, where the KKT
    certificate holds. beta_norm/beta0_norm hold the same values (beta_norm
    in an array of its own) and nothing in normreg reads them: they stay only
    because perfbench/test_bench.py constructs a FitResult with them.
    sweeps_used counts homotopy steps (1 for the closed form of a tall
    design of at most three columns, or for a ridge solve):
    since the point before on a continued path, and every step of a
    fit_each arm, those taken alongside earlier arms' steps included;
    converged means the fit passed the KKT certificate, and kkt_residual is
    its scale-free residual.
    """

    beta_norm: np.ndarray
    beta0_norm: float
    beta: np.ndarray
    beta0: float
    sweeps_used: int
    converged: bool
    objective_value: float
    lam1: float
    lam2: float
    kkt_residual: float = 0.0

    @property
    def support(self) -> np.ndarray:
        return np.nonzero(self.beta)[0]


def _objective(r, beta, lam1, lam2, u, v) -> float:
    value = 0.5 * float(np.dot(r, r)) + lam1 * float(np.dot(u, np.abs(beta)))
    # at lam2 = 0 the quadratic term is exactly 0.0, and adding it changes nothing
    if lam2 > 0.0:
        value += 0.5 * lam2 * float(np.dot(v, beta * beta))
    return float(value)


def _moments(x: np.ndarray, tall: bool):
    """(column means, X'X of a tall x or None, column sums of squares): a
    tall x's sums of squares are the diagonal of X'X, not another pass."""
    # one BLAS call; x.mean(axis=0) is several times slower on a tall X
    xbar = np.ones(x.shape[0]) @ x / x.shape[0]
    if not tall:
        return xbar, None, np.einsum("ij,ij->j", x, x)
    gram = x.T @ x
    return xbar, gram, gram.diagonal().copy()


class _Setup:
    """What every fit of one Dataset shares, read-only: the column means,
    their centered sums of squares (a tall design's Gram diagonal, bit for
    bit), the columns with no variance (and whether there are any), mean(y),
    X'(y - mean y) (zero on those columns) and its largest entry, and a tall
    design's centered Gram, built once.

    The Gram is paid before the first step, whatever the fits need: 8 p^2
    bytes and about n p^2 multiply-adds. A path or a dense fit reads much of
    it; one sparse fit of a large tall design pays for rows it never reads.
    One fit with 10 active columns on a 4000 x 3000 Gaussian design took
    0.86 s, against 0.09 s when rows were computed as joins needed them
    (one BLAS thread on a 2-core x86-64).

    Centering through the means costs a column (mean / sd)^2 ulps of its
    Gram entries, so a design with a non-constant column whose mean exceeds
    100 sd is centered once, in a copy x, and shift holds the means taken out.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        n, p = x.shape
        xbar, gram, raw = _moments(x, p <= n)
        own = raw - n * xbar * xbar
        # only a column that fails the spread test can need the shift
        suspect = np.flatnonzero(own < 1e-4 * raw)
        self.shift = None
        if suspect.size and np.any(np.ptp(x[:, suspect], axis=0) > 0.0):
            x, self.shift = x - xbar, xbar
            xbar, gram, raw = _moments(x, p <= n)
            own = raw - n * xbar * xbar
        self.x, self.n, self.xbar, self.own = x, n, xbar, own
        self.dead = own <= _DEAD * raw  # no variance
        self.any_dead = bool(np.logical_or.reduce(self.dead))
        self.ybar = float(y.sum() / n)
        self.yc = y - self.ybar
        self.c0 = x.T @ self.yc
        if self.any_dead:
            # a dead column's correlation is round-off
            self.c0[self.dead] = 0.0
        self.scale = float(np.maximum.reduce(np.abs(self.c0), initial=0.0))
        if gram is not None:
            gram -= np.multiply.outer(n * xbar, xbar)
        self.gram = gram
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)


def _setup(data: Dataset) -> _Setup:
    """data's set-up, made on first use and kept on the instance."""
    setup = data.__dict__.get("_setup")
    if setup is None:
        setup = data.__dict__["_setup"] = _Setup(data.x, data.y)
    return setup


class _Design:
    """The centered design of one fit: its set-up, weights and lam2.

    The one place that tells tall designs from wide ones: tall ones (p <= n)
    read the centered Gram their set-up built once; wide ones keep the raw
    active columns contiguous, one row of n floats each in the order of the
    path's active set, and center them through the column means.
    """

    def __init__(self, setup: _Setup, u, v, lam2: float):
        self.u, self.v, self.lam2 = u, v, lam2
        self.x, self.n, self.xbar, self.yc = setup.x, setup.n, setup.xbar, setup.yc
        self.own = setup.own
        self.c0, self.gram, self.dead = setup.c0, setup.gram, setup.dead
        self.any_dead = setup.any_dead
        self.active = np.empty((0, self.n)) if self.gram is None else None

    # -- the active columns, in the order of the path's active set -------

    def reserve(self, size: int, k: int) -> None:
        """Room for size active columns, keeping the first k."""
        if self.active is not None and size > self.active.shape[0]:
            active = np.empty((size, self.n))
            active[:k] = self.active[:k]
            self.active = active

    def enter(self, i: int, j: int) -> None:
        """Column j becomes active column i."""
        if self.active is not None:
            self.active[i] = self.x[:, j]

    def swap(self, i: int, last: int) -> None:
        """Active columns i and last trade places."""
        if self.active is not None:
            self.active[[i, last]] = self.active[[last, i]]

    # -- products --------------------------------------------------------

    def correlations(self, beta: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """c = X'(y - X beta) - lam2 v beta on the centered problem, for a
        beta that is zero off the active columns idx."""
        if self.gram is None:
            z = self.x @ beta
            z -= float(self.xbar @ beta)
            c = self.x.T @ (self.yc - z)
        else:
            c = self.c0 - beta[idx] @ self.gram[idx]
        if self.lam2:
            c -= self.lam2 * self.v * beta
        return c

    def lead(self, idx: np.ndarray, dvec: np.ndarray) -> np.ndarray:
        """The centered X_A dvec of a wide design, formed from its active
        columns: what a step's one pass over X multiplies."""
        z = dvec @ self.active[: idx.shape[0]]
        z -= float(self.xbar[idx] @ dvec)
        return z

    def scan(self, z: np.ndarray) -> np.ndarray:
        """X'z, one pass over X: for one z, or for both columns of a C-ordered
        n x 2 z at about the cost of one."""
        return self.x.T @ z

    def product(self, idx: np.ndarray, dvec: np.ndarray) -> np.ndarray:
        """Centered X'X_A dvec for the active columns idx, the move of c per
        unit step along dvec."""
        if self.gram is not None:
            return dvec @ self.gram[idx]
        return self.scan(self.lead(idx, dvec))

    def cross(self, j: int, idx: np.ndarray) -> np.ndarray:
        """Centered x_j'X_A for the active columns idx."""
        if self.gram is None:
            g = self.active[: idx.shape[0]] @ self.x[:, j]
            g -= self.n * self.xbar[j] * self.xbar[idx]
            return g
        return self.gram[j, idx]

    def system(self, cols: np.ndarray) -> np.ndarray:
        """M_A = X_A'X_A + lam2 diag(v_A) on the centered design, built afresh
        for the active columns cols, in their order."""
        if self.gram is None:
            xs = self.active[: cols.shape[0]]
            m = xs @ xs.T - np.multiply.outer(self.n * self.xbar[cols], self.xbar[cols])
        else:
            m = self.gram[np.ix_(cols, cols)]
        m[np.diag_indices(len(cols))] += self.lam2 * self.v[cols]
        return m

    def ridge(self) -> np.ndarray:
        """The lam1 = 0 optimum; the minimum-norm one when lam2 = 0 leaves a tie."""
        x, n = self.x, self.n
        p = x.shape[1]
        if self.gram is None:
            # lam2 > 0, since fit refuses an unpenalized wide fit: with W = (lam2
            # diag(v))^{-1}, beta = W X'(I + X W X')^{-1} y needs an n x n system,
            # not the p x p Gram
            xc = x - self.xbar
            xc[:, self.dead] = 0.0
            w = 1.0 / (self.lam2 * self.v)
            system = (xc * w) @ xc.T
            system[np.diag_indices(n)] += 1.0
            return w * (xc.T @ np.linalg.solve(system, self.yc))
        keep = np.flatnonzero(~self.dead)
        beta = np.zeros(p)
        if keep.size:
            sub = self.gram[np.ix_(keep, keep)]
            if self.lam2 > 0.0:
                sub[np.diag_indices_from(sub)] += self.lam2 * self.v[keep]
                beta[keep] = np.linalg.solve(sub, self.c0[keep])
            else:
                beta[keep] = np.linalg.lstsq(sub, self.c0[keep], rcond=None)[0]
        return beta


class _Homotopy:
    """The lam1 path at fixed lam2 on a centered design, from lambda_max down.

    It knows no other path: `run` steps it alone, and `step_with` steps it
    and one other path of the same design, each toward its own lam1, sharing
    the pass over X. Which paths step together is the caller's to decide.
    """

    def __init__(self, design: _Design):
        d = design
        n, p = d.x.shape
        self.d, self.max_steps = d, _max_steps(p)
        # centered columns span at most n - 1 dimensions
        self.cap = p if d.lam2 > 0.0 else min(p, n - 1)
        # sized for the active set, which can stay far below cap
        size = max(min(self.cap, _BLOCK), 1)
        # M_A^{-1} = inv + lo hi' over the first m columns of (lo, hi) = pend,
        # in the order of act
        self.inv = np.empty((size, size))
        self.pend = np.empty((2, size, _RANK))
        self.act = np.empty(size, dtype=np.intp)
        self.sgn = np.empty(size)
        # a step's [residual, x_A'x_j], C-ordered
        self.pair = np.empty((size, 2))
        # each step's drop and join times, inf where a bound is not reached
        self.drop_times = np.empty(size)
        self.join_times = np.empty((2, p))
        # the join search's p-sized work arrays; row 0 of each 2 x p one is
        # the upper bound +lam u_j, row 1 the lower bound -lam u_j. A column
        # may join (is inactive, not dead, not refused) where limit, the
        # outward rate it must exceed, is _TIE u_j; elsewhere limit is inf.
        self.limit = np.empty((2, p))
        self.bound = np.empty(p)
        self.near = np.empty(p)
        self.gap = np.empty((2, p))
        self.rate = np.empty((2, p))
        self.mask = np.empty((2, p), dtype=bool)
        self.first = np.empty(p)
        d.reserve(size, 0)
        self.restart()

    def restart(self) -> None:
        """Start at lambda_max, where the live column of largest |c_j| / u_j
        joins. That first join needs none of join's algebra: with A empty its
        Schur complement is M_jj > 0, and cap >= 1 once a column is live, so
        it is never refused and M_A^{-1} is 1 / M_jj."""
        d = self.d
        self.k = self.steps = self.m = 0
        self.done: int | None = None  # steps at the end of the last fit made from here
        self.limit[:] = _TIE * d.u
        self.refused: list[int] = []
        # the step's direction, and the next step's when an event formed it
        self.dvec = self.next = None
        self.dropped, self.left = -1, 0.0  # the last drop, and the bound it left
        self.beta = np.zeros(d.c0.shape[0])
        self.c = d.c0.copy()
        ratio = np.abs(d.c0) / d.u
        if d.any_dead:
            self.limit[:, d.dead] = math.inf
            ratio[d.dead] = -1.0
        j = int(ratio.argmax())
        self.lam = 0.0 if d.dead[j] else float(ratio[j])
        if self.lam == 0.0:
            return
        self.limit[:, j] = math.inf
        d.enter(0, j)
        self.inv[0, 0] = 1.0 / (d.own[j] + d.lam2 * d.v[j])
        self.act[0] = j
        self.sgn[0] = 1.0 if d.c0[j] > 0.0 else -1.0
        self.k = 1

    # -- the active set --------------------------------------------------

    def reserve(self, k: int) -> None:
        """Room for k active columns: the buffers, the design's among them,
        double, up to cap."""
        size = self.act.shape[0]
        if k <= size:
            return
        size = min(max(2 * size, k), self.cap)
        k, m = self.k, self.m
        inv = np.empty((size, size))
        inv[:k, :k] = self.inv[:k, :k]
        self.inv = inv
        pend = np.empty((2, size, _RANK))
        pend[:, :k, :m] = self.pend[:, :k, :m]
        self.pend = pend
        self.act = np.resize(self.act, size)
        self.sgn = np.resize(self.sgn, size)
        self.pair = np.empty((size, 2))
        self.drop_times = np.empty(size)
        self.d.reserve(size, k)

    # -- M_A^{-1} --------------------------------------------------------

    def apply(self, z: np.ndarray) -> np.ndarray:
        """M_A^{-1} z, the pending updates included."""
        k, m = self.k, self.m
        out = self.inv[:k, :k] @ z
        if m:
            lo, hi = self.pend[:, :k, :m]
            out += lo @ (hi.T @ z)
        return out

    def update(self, size: int, col: np.ndarray, row: np.ndarray) -> None:
        """Add col row' to the leading size x size block of M_A^{-1}: at once
        up to _RANK columns, else as a pending update."""
        if size <= _RANK:
            self.fold(size)
            self.inv[:size, :size] += np.multiply.outer(col, row)
            return
        m = self.m
        self.pend[0, :size, m] = col
        self.pend[1, :size, m] = row
        self.m = m + 1
        if self.m == _RANK:
            self.fold(size)

    def fold(self, size: int) -> None:
        """Fold the pending updates into the leading size x size block."""
        if self.m:
            lo, hi = self.pend[:, :size, : self.m]
            self.inv[:size, :size] += lo @ hi.T
            self.m = 0

    # -- joins and drops -------------------------------------------------

    def join(self, j: int, sign: float, known=None) -> bool:
        """Column j joins with the given sign, or is refused: near the span
        of the active columns, or with A full. Its x_j'X_A and
        w = M_A^{-1} x_A'x_j are `known` when the step that found j made
        them. A join by the update (not a near one) that ends a step also
        forms the next step's direction."""
        d, k = self.d, self.k
        idx = self.act[:k]
        if known is None:
            g = d.cross(j, idx)
            w = self.apply(g)
        else:
            g, w = known
        self.limit[:, j] = math.inf
        m = d.own[j] + d.lam2 * d.v[j]
        schur = m - float(g @ w)
        near = k < self.cap and schur <= _NEAR * m
        if near:
            # Near the span of the active columns the updated inverse is too
            # coarse to judge by; a Cholesky factor of the bordered system is not.
            self.reserve(k + 1)
            d.enter(k, j)
            system = d.system(np.append(idx, j))
            try:
                schur = float(np.linalg.cholesky(system)[k, k]) ** 2
            except np.linalg.LinAlgError:
                schur = 0.0
        if k >= self.cap or schur <= _SCHUR * m:
            self.refused.append(j)
            return False
        self.reserve(k + 1)
        d.enter(k, j)
        inv = self.inv
        if near:
            inv[: k + 1, : k + 1] = np.linalg.inv(system)
            self.m = 0
        else:
            ws = w / schur
            self.update(k, w, ws)
            if self.m:
                # the new row and column are exact in inv; no pending term touches them
                self.pend[:, k, : self.m] = 0.0
            inv[:k, k] = inv[k, :k] = -ws
            inv[k, k] = 1.0 / schur
            if self.dvec is not None:
                # M_{A+j}^{-1} (u_A s, u_j sign) from the step's d = M_A^{-1}(u_A s)
                e = (d.u[j] * sign - float(g @ self.dvec)) / schur
                self.next = np.empty(k + 1)
                self.next[:k] = self.dvec - w * e
                self.next[k] = e
        self.act[k] = j
        self.sgn[k] = sign
        self.k = k + 1
        return True

    def drop(self, i: int) -> None:
        """Active column i leaves; a drop that ends a step forms the next
        step's direction."""
        inv, k, m = self.inv, self.k, self.m
        last = k - 1
        j = int(self.act[i])
        self.dropped, self.left = j, float(self.sgn[i])
        if i != last:
            swap = [last, i]
            inv[[i, last], :k] = inv[swap, :k]
            inv[:k, [i, last]] = inv[:k, swap]
            if m:
                self.pend[:, [i, last], :m] = self.pend[:, swap, :m]
            self.act[[i, last]] = self.act[swap]
            self.sgn[[i, last]] = self.sgn[swap]
            self.d.swap(i, last)
        col, piv = inv[:last, last], inv[last, last]
        if m:
            lo, hi = self.pend[:, :k, :m]
            full = inv[:k, last] + lo @ hi[last]
            col, piv = full[:last], full[last]
        if self.dvec is not None:
            # the smaller set's M^{-1} (u s), from the step's d, swapped alike
            dvec = self.dvec
            if i != last:
                dvec[[i, last]] = dvec[swap]
            self.next = dvec[:last] - col * (dvec[last] / piv)
        self.update(last, col, col / -piv)
        self.k = last
        self.beta[j] = 0.0
        # a smaller active set may no longer span a refused column
        u = self.d.u
        self.limit[:, self.refused] = _TIE * u[self.refused]
        self.limit[:, j] = _TIE * u[j]
        self.refused.clear()

    def worn(self, fix: np.ndarray, value: np.ndarray) -> bool:
        """Whether a refinement this large shows an inverse worn down by the
        updates (drops on an ill-conditioned M_A); if so, rebuild it."""
        if np.maximum.reduce(np.abs(fix)) <= _WORN * np.maximum.reduce(np.abs(value)):
            return False
        k = self.k
        self.inv[:k, :k] = np.linalg.inv(self.d.system(self.act[:k]))
        self.m = 0
        return True

    # -- moving along the path -------------------------------------------

    def run(self, lam1: float) -> bool:
        """Follow the path down to lam1; False if the step cap stopped it."""
        while self.lam > lam1:
            if self.steps >= self.max_steps:
                return False
            self.open()
            self.close(lam1, self.d.product(self.idx, self.dvec))
        return True

    def step_with(self, other: _Homotopy, lam1: float, goal: float) -> None:
        """One step of this path toward lam1 and one of other, a path of the
        same wide design, toward goal. Each forms its centered X_A d, and one
        X'Z over the C-ordered n x 2 Z of the two gives both products, at
        about the cost of one pass over X."""
        d = self.d
        self.open()
        other.open()
        z = np.empty((d.n, 2))
        z[:, 0] = d.lead(self.idx, self.dvec)
        z[:, 1] = other.d.lead(other.idx, other.dvec)
        both = d.scan(z)
        other.close(goal, both[:, 1])
        self.close(lam1, both[:, 0])

    def open(self) -> None:
        """Begin a step: the direction M_A^{-1} (u_A s), before refinement.
        The join or drop that ended the step before has formed it already,
        in O(|A|) from that step's direction (LARS's own update); otherwise
        it is one product with M_A^{-1}."""
        self.steps += 1
        self.idx = self.act[: self.k]
        self.target = self.d.u[self.idx] * self.sgn[: self.k]
        dvec, self.next = self.next, None
        self.dvec = self.apply(self.target) if dvec is None else dvec

    def close(self, lam1: float, a: np.ndarray) -> None:
        """End a step given a, the product of the direction open made: find
        the first join by a, refine the direction, then move to the first
        drop, join or lam1. When a column joins before lam1, the refinement
        and its w = M_A^{-1} x_A'x_j come from one product with M_A^{-1}
        over [residual, x_A'x_j]. c moves by a, the unrefined direction's
        product, and is exact again on A after the move."""
        d = self.d
        v, lam2 = d.v, d.lam2
        k, idx, target, dvec = self.k, self.idx, self.target, self.dvec
        sgn = self.sgn[:k]
        c, lam = self.c, self.lam
        j_join, t_join = self.search(a)
        joining = t_join < lam - lam1
        # a join's refinement is a column of the product with [residual, x_A'x_j]
        residual = np.subtract(target, a[idx], out=self.pair[:k, 0] if joining else None)
        if lam2:
            residual -= lam2 * v[idx] * dvec
        if joining:
            g = d.cross(j_join, idx)
            pair = self.pair[:k]
            pair[:, 1] = g
            both = self.apply(pair)
            fix, known = both[:, 0], (g, both[:, 1])
        else:
            fix, known = self.apply(residual), None
        if self.worn(fix, dvec):
            # the inverse is new: the direction, its product and the search
            # are made afresh, and join makes w from the new inverse
            known = None
            dvec = self.apply(target)
            a = d.product(idx, dvec)
            fix = self.apply(target - a[idx] - lam2 * v[idx] * dvec)
            j_join, t_join = self.search(a)
        dvec += fix
        self.dvec = dvec
        # drops: an active coefficient reaches zero
        bk = self.beta[idx]
        toward = sgn * dvec < 0.0
        t_drop, i_drop = math.inf, -1
        if np.logical_or.reduce(toward):
            td = self.drop_times[:k]
            td.fill(math.inf)
            np.divide(-bk, dvec, out=td, where=toward)
            i_drop = int(td.argmin())
            t_drop = max(float(td[i_drop]), 0.0)
        t = min(t_drop, t_join, lam - lam1)
        self.beta[idx] = bk + t * dvec
        c -= t * a
        self.lam = lam1 if t >= lam - lam1 else lam - t
        c[idx] = self.lam * target
        if self.lam == lam1:
            return
        if t_drop <= t_join:
            self.drop(i_drop)
        else:
            self.dropped, self.left = -1, 0.0
            self.join(j_join, 1.0 if c[j_join] > 0.0 else -1.0, known)

    def search(self, a: np.ndarray) -> tuple[int, float]:
        """(j, t): the first column to join as c moves by -t a, and the step
        length t at which it does (inf if none can). No ufunc runs under a
        where= mask: a side that cannot be reached gets the time inf / 1."""
        c, lam, u = self.c, self.lam, self.d.u
        # a free column reaches +lam u_j (row 0) or -lam u_j (row 1); one
        # already within _TIE of its bound joins now if the direction takes
        # it outward by more than round-off. The column that just dropped
        # left its bound on side `left`, so on this segment it can only
        # reach the other one.
        bound, gap, rate, mask = self.bound, self.gap, self.rate, self.mask
        np.multiply(lam, u, out=bound)
        np.subtract(bound, c, out=gap[0])
        np.add(bound, c, out=gap[1])
        np.multiply(_TIE, bound, out=self.near)
        np.less_equal(gap, self.near, out=mask)
        np.putmask(gap, mask, 0.0)
        np.subtract(u, a, out=rate[0])
        np.add(u, a, out=rate[1])
        # the sides that cannot be reached: not moving outward fast enough
        # (rate is finite, so rate <= limit is not rate > limit)
        np.less_equal(rate, self.limit, out=mask)
        if self.left:
            mask[0 if self.left > 0.0 else 1, self.dropped] = True
        np.putmask(gap, mask, math.inf)
        np.putmask(rate, mask, 1.0)
        np.divide(gap, rate, out=self.join_times)
        times = np.minimum(self.join_times[0], self.join_times[1], out=self.first)
        j = int(times.argmin())
        return j, float(times[j])

    def solve(self, lam: float) -> np.ndarray:
        """beta at lam on the current active set and signs, refined once;
        a coefficient against its sign is dropped and the rest re-solved."""
        d = self.d
        # after the drops made here, the next step forms its direction afresh
        self.dvec = self.next = None
        while True:
            k = self.k
            beta = np.zeros(self.beta.shape[0])
            if not k:
                return beta
            idx = self.act[:k]
            sgn = self.sgn[:k]
            target = lam * d.u[idx] * sgn
            for attempt in range(2):
                b = self.apply(d.c0[idx] - target)
                beta[idx] = b
                fix = self.apply(d.correlations(beta, idx)[idx] - target)
                if attempt or not self.worn(fix, b):
                    break
            b += fix
            beta[idx] = b
            signed = b * sgn
            if np.minimum.reduce(signed) > 0.0:
                return beta
            self.drop(int(signed.argmin()))


def _max_steps(p: int) -> int:
    # a safeguard: criterion 7's 200 fits at seed 11 take at most 647 steps
    # at p = 1000, where the cap is 10,100
    return 100 + 10 * p


def _kkt(x, r, beta, lam1, lam2, u, v, dead) -> np.ndarray:
    """Per-coordinate KKT residual at residual r: |stationarity|
    |g_j - lam2 v_j b_j - lam1 u_j sign(b_j)| on the support, the excess
    max(|g_j| - lam1 u_j, 0) off it, where g = X'r and a dead column's g_j,
    round-off, is taken as zero. Each entry gets the formula's own operations
    in its order: at lam2 = 0 the dropped term is a zero that the abs makes
    no difference to, and on the support copysign(lam1 u_j, b_j) is
    lam1 u_j sign(b_j)."""
    grads = x.T @ r
    grads[dead] = 0.0
    lu = lam1 * u
    out = np.abs(grads)
    out -= lu
    np.maximum(out, 0.0, out=out)
    if lam2:
        grads -= lam2 * v * beta
    grads -= np.copysign(lu, beta)
    np.abs(grads, out=grads)
    np.copyto(out, grads, where=beta != 0.0)
    return out


@lru_cache(maxsize=16)
def _supports(live: tuple) -> tuple:
    """Every support of the live columns, the largest first."""
    return tuple(cols for k in range(len(live), 0, -1) for cols in combinations(live, k))


def _system(m: list, gram: list, c: list, cols: tuple):
    """(adj, size, det, signs) of M_S on the columns cols (ascending, so that
    gram's upper triangle is read): its adjugate, whose entry (r, q) is a
    difference of two products and size[r][q] the sum of their magnitudes,
    its determinant and the signs of adj c_S, those of the lam1 = 0 solution;
    None where det M_S is at most _NEAR prod_S M_jj, below which the path
    itself stops trusting its updated inverse. One column has adj = 1 and
    det = M_jj, with no gate."""
    if len(cols) == 1:
        j = cols[0]
        return ((1.0,),), ((1.0,),), m[j], (1.0 if c[j] > 0.0 else -1.0,)
    if len(cols) == 2:
        i, j = cols
        g = gram[i][j]
        det = m[i] * m[j] - g * g
        if det <= _NEAR * m[i] * m[j]:
            return None
        adj = (m[j], -g), (-g, m[i])
        size = (m[j], abs(g)), (abs(g), m[i])
    else:
        i, j, l = cols
        a, b, c3, d, e, f = m[i], m[j], m[l], gram[i][j], gram[i][l], gram[j][l]
        pairs = (
            (b * c3, f * f), (e * f, c3 * d), (d * f, b * e),
            (a * c3, e * e), (d * e, a * f), (a * b, d * d),
        )
        a0, a1, a2, a3, a4, a5 = [p - q for p, q in pairs]
        s0, s1, s2, s3, s4, s5 = [abs(p) + abs(q) for p, q in pairs]
        det = a * a0 + d * a1 + e * a2
        if det <= _NEAR * a * b * c3:
            return None
        adj = (a0, a1, a2), (a1, a3, a4), (a2, a4, a5)
        size = (s0, s1, s2), (s1, s3, s4), (s2, s4, s5)
    cs = [c[q] for q in cols]
    signs = tuple([1.0 if math.fsum(map(mul, row, cs)) > 0.0 else -1.0 for row in adj])
    return adj, size, det, signs


def _closed_form(design: _Design, lam1: float) -> np.ndarray | None:
    """The optimum at lam1 of a tall design of at most three columns, by
    cases; None where no case holds with margin, and the path (or the ridge
    solve) decides."""
    lam2, p = design.lam2, design.x.shape[1]
    beta = np.zeros(p)
    # gram is symmetric only to round-off: only its upper triangle is read
    c, u, v, gram = design.c0.tolist(), design.u.tolist(), design.v.tolist(), design.gram.tolist()
    m = [q + lam2 * w for q, w in zip(design.own.tolist(), v)]
    # a dead column never joins; with none live the optimum is the null model
    live = tuple(j for j in range(p) if not design.dead[j]) if design.any_dead else tuple(range(p))
    if not live:
        return beta
    # the first join at lambda_max, ties going to the lower index
    ratio = [abs(c[j]) / u[j] for j in live]
    top = max(ratio)
    f = live[ratio.index(top)]
    if top <= lam1 and abs(c[f]) <= lam1 * u[f]:
        # the path's own test: no step, and its solve drops column f
        return beta

    def holds(cols: tuple, system: tuple, signs: tuple) -> bool:
        """Whether the support cols with these signs is the optimum: each
        sign by more than _TIE of the terms that cancel in its numerator
        (|c_j| for one column, else the products of the cofactors' entries
        with z), and each other live column inside its bound by more than
        _TIE of lam1 u_j, |c_j| and each |G_jq| times the size of beta_q's
        terms (its reach); if so, beta holds its point."""
        adj, size, det, _ = system
        z = [c[q] - lam1 * u[q] * s for q, s in zip(cols, signs)]
        mags = list(map(abs, z))
        b, reach = [], []
        for row, sizes, s in zip(adj, size, signs):
            # fsum rounds once, so two terms add as a + b does
            num = math.fsum(map(mul, row, z))
            margin = math.fsum(map(mul, sizes, mags)) if len(cols) > 1 else abs(c[cols[0]])
            if s * num <= _TIE * margin:
                return False
            b.append(num / det)
            reach.append(margin / det)
        for j in live:
            if j not in cols:
                rest, spread = c[j], abs(c[j])
                for q, bq, rq in zip(cols, b, reach):
                    g = gram[q][j] if q < j else gram[j][q]
                    rest -= g * bq
                    spread += abs(g) * rq
                if lam1 * u[j] - abs(rest) <= _TIE * (lam1 * u[j] + spread):
                    return False
        for q, bq in zip(cols, b):
            beta[q] = bq
        return True

    # every support of the live columns, the largest first, with the signs
    # of its lam1 = 0 solution adj(M_S) c_S; then the other signs (a column
    # alone holds only with the sign of c_j). With strict margins at most one
    # case holds, so the order only decides how soon it is found.
    tried = []
    for cols in _supports(live):
        system = _system(m, gram, c, cols)
        if system is not None:
            if holds(cols, system, system[3]):
                return beta
            if len(cols) > 1:
                tried.append((cols, system))
    for cols, system in tried:
        for signs in product((1.0, -1.0), repeat=len(cols)):
            if signs != system[3] and holds(cols, system, signs):
                return beta
    return None


def _optimum(design: _Design, lam1: float, path: _Homotopy | None):
    """(beta, steps, continued) of the centered problem at lam1; continued
    tells whether path went on from an earlier fit's point below lambda_max,
    and steps counts the path's steps since that fit, or since lambda_max."""
    if design.x.shape[1] <= 3 and design.gram is not None:
        beta = _closed_form(design, lam1)
        if beta is not None:
            return beta, 1, False
    if lam1 == 0.0:
        return design.ridge(), 1, False
    if path is None:
        path = _Homotopy(design)
    elif path.done is not None and (not path.k or path.lam < lam1):
        # an empty active set, above lambda_max, has no direction to go on along
        path.restart()
    start = path.done or 0
    finished = path.run(lam1)
    path.done = path.steps
    return (path.solve(lam1) if finished else path.beta.copy()), path.steps - start, start > 0


def fit(
    data: Dataset,
    penalty: PenaltySpec,
    *,
    continuation: _Homotopy | None = None,
) -> FitResult:
    """Solve the weighted elastic net on data exactly.

    A normalized fit is this fit at weights u = s u0, v = s^2 v0 (see the
    module docstring). continuation is a homotopy on this data at penalty's
    weights and lam2: fit_path's, at the point before, which a failed
    certificate sends back to lambda_max, or a fit_each arm's, which
    fit_each has already stepped down to lam1 (or to the step cap), and
    whose failed certificate stands, as a cold fit's does.
    """
    y, n, p = data.y, data.n, data.p
    if penalty.lam1 == 0.0 and penalty.lam2 == 0.0 and p >= n:
        raise DomainError("unpenalized fit requires p < n")
    u, v = penalty.resolve_weights(p)
    lam1, lam2 = penalty.lam1, penalty.lam2
    setup = _setup(data)
    design = continuation.d if continuation is not None else _Design(setup, u, v, lam2)
    scale, steps = setup.scale, 0
    x = setup.x
    while True:
        beta, taken, continued = _optimum(design, lam1, continuation)
        steps += taken
        beta0 = setup.ybar - float(setup.xbar @ beta)
        r = y - beta0 - x @ beta
        res = _kkt(x, r, beta, lam1, lam2, u, v, setup.dead)
        worst = float(np.maximum.reduce(res, initial=0.0))
        residual = (0.0 if worst == 0.0 else math.inf) if scale == 0.0 else worst / scale
        # a continued point that lost the certificate is redone from lambda_max
        if not continued or residual <= KKT_TOLERANCE:
            break
        continuation.restart()
    objective = _objective(r, beta, lam1, lam2, u, v)
    if setup.shift is not None:
        beta0 -= float(setup.shift @ beta)
    return FitResult(
        beta_norm=beta,
        beta0_norm=beta0,
        beta=beta.copy(),
        beta0=beta0,
        sweeps_used=steps,
        converged=residual <= KKT_TOLERANCE,
        objective_value=objective,
        lam1=lam1,
        lam2=lam2,
        kkt_residual=residual,
    )


def orthogonal_solution(
    xty: np.ndarray, col_sq: np.ndarray, penalty: PenaltySpec, ybar: float = 0.0
) -> tuple[np.ndarray, float]:
    """Closed-form solution for a design with orthogonal mean-centered columns.

    beta_j = ST(x_j' y, lam1 u_j) / (||x_j||^2 + lam2 v_j) and beta0 = mean(y).
    Used as the solver's test oracle.
    """
    xty = np.asarray(xty, dtype=np.float64)
    col_sq = np.asarray(col_sq, dtype=np.float64)
    if xty.shape != col_sq.shape or xty.ndim != 1:
        raise DimensionMismatchError("xty and col_sq must be 1-d with equal length")
    u, v = penalty.resolve_weights(xty.shape[0])
    shrunk = np.sign(xty) * np.maximum(np.abs(xty) - penalty.lam1 * u, 0.0)
    denom = col_sq + penalty.lam2 * v
    if np.any(denom <= 0.0):
        raise DomainError("each column needs ||x_j||^2 + lam2 v_j > 0")
    return shrunk / denom, float(ybar)


def lambda_max(data: Dataset, u: np.ndarray | None = None) -> float:
    """Smallest l1 level at which the fit is the null model.

    max_j |x_j' (y - mean(y))| / u_j: at or above this level every
    coordinate satisfies the zero-coefficient optimality condition.
    """
    u_arr = _ones(data.p) if u is None else _weights("u", u, data.p)
    value = float(np.maximum.reduce(np.abs(_setup(data).c0) / u_arr, initial=0.0))
    if value == 0.0:
        raise DomainError("lambda_max undefined: all columns uncorrelated with response")
    # pad by a few ulps so lam1 * u_j >= |x_j' r| survives the divide/multiply
    # round trip and a fit at exactly this level is the null model
    return value * (1.0 + 4.0 * np.finfo(np.float64).eps)


def lambda_grid(lam_max: float, count: int = 100, ratio: float = 1e-2) -> np.ndarray:
    """Log-spaced grid from lam_max down to ratio * lam_max."""
    if not (math.isfinite(lam_max) and lam_max > 0.0) or count < 1 or not 0.0 < ratio <= 1.0:
        raise DomainError("need finite lam_max > 0, count >= 1, ratio in (0, 1]")
    return lam_max * np.exp(np.linspace(0.0, np.log(ratio), count))


def fit_path(
    data: Dataset,
    alpha: float,
    lambdas: np.ndarray,
    u: np.ndarray | None = None,
    v: np.ndarray | None = None,
) -> list[FitResult]:
    """Fits over the caller's lambda grid, in the given order, one `fit` each.

    The caller owns the grid: lambda_grid(lambda_max(data, u), count, ratio)
    gives a path from this data's null model down, and any other anchor (the
    full-data lambda_max for a cross-validation fold, say) works the same.
    At alpha = 1 one homotopy continues down the grid, stopping at each
    point; a point above the last, or past an empty active set, starts it
    again from lambda_max. At alpha < 1 lam2 moves with lambda, so each fit
    starts from lambda_max. Every fit shares the data's set-up, and u and v
    are checked once, for the whole grid.
    """
    # the weights' one check; every point shares the checked copies
    penalty = PenaltySpec(0.0, u=u, v=v)
    path = None
    # a tall design of at most three columns mostly has a closed form, and
    # the points it declines continue this one homotopy; a single column
    # declines only within _TIE below its lambda_max, where a homotopy of
    # its own takes one step, and p = 0 is the null model
    if alpha == 1.0 and data.p > 1:
        design = _Design(_setup(data), *penalty.resolve_weights(data.p), 0.0)
        path = _Homotopy(design)
    return [
        fit(data, penalty._at(*_mixing(alpha, float(lam))), continuation=path) for lam in lambdas
    ]


def fit_each(data: Dataset, penalties) -> list[FitResult]:
    """Fits of data at each penalty, in the given order, one `fit` each; each
    is the cold fit at its penalty (see the module docstring).

    On a wide design (p > n) every arm with lam1 > 0 gets its homotopy
    up front, and the pairing rule lives here alone: arm i steps down to its
    lam1 or its step cap before its `fit`, each step together with one step
    of the first later arm still above its own lam1 and under its cap
    (`_Homotopy.step_with`), and alone once no such arm is left. An arm's
    steps taken alongside an earlier arm's count in its own sweeps_used,
    and its buffers go once it is fitted.
    Tall designs (of at most three columns, mostly a closed form) and
    lam1 = 0 get the plain fit.
    """
    penalties = list(penalties)
    arms: list[_Homotopy | None] = [None] * len(penalties)
    setup = _setup(data)
    if setup.gram is None:
        for i, penalty in enumerate(penalties):
            if penalty.lam1 > 0.0:
                design = _Design(setup, *penalty.resolve_weights(data.p), penalty.lam2)
                arms[i] = _Homotopy(design)

    def moving(i: int) -> bool:
        arm = arms[i]
        return arm is not None and arm.lam > penalties[i].lam1 and arm.steps < arm.max_steps

    results = []
    for i, penalty in enumerate(penalties):
        while moving(i):
            j = next((j for j in range(i + 1, len(arms)) if moving(j)), None)
            if j is None:
                arms[i].run(penalty.lam1)
            else:
                arms[i].step_with(arms[j], penalty.lam1, penalties[j].lam1)
        results.append(fit(data, penalty, continuation=arms[i]))
        arms[i] = None
    return results


def kkt_residuals(data: Dataset, penalty: PenaltySpec, result: FitResult):
    """(max active stationarity residual, max inactive excess) for a fit.

    Active coordinates must satisfy x_j' r - lam2 v_j b_j = lam1 u_j sign(b_j);
    inactive ones |x_j' r| <= lam1 u_j. Both residuals scale with n.
    """
    u, v = penalty.resolve_weights(data.p)
    r = data.y - result.beta0 - data.x @ result.beta
    res = _kkt(data.x, r, result.beta, penalty.lam1, penalty.lam2, u, v, _setup(data).dead)
    active = result.beta != 0.0
    return (
        float(np.max(res, where=active, initial=0.0)),
        float(np.max(res, where=~active, initial=0.0)),
    )
