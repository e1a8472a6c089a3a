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
column means, the columns with no variance, mean(y), X'(y - mean y) and, for
a tall design (p <= n), the centered Gram X'X - n xbar xbar', built once
from one product X'X whose diagonal also gives the column sums of squares.
A Dataset's arrays are read-only, and so are its set-up's, so this cannot go
stale. The weights, lam2 and a wide design's active columns belong to each
fit. `_Design` alone chooses between tall designs and wide ones. On tall
ones a join reads a row of the Gram and a step costs O(p |A|). Wide ones
keep the active columns contiguous, one row of n floats each in the order of
A, in a buffer that doubles with M_A^{-1}'s as A grows: a join costs x_j'X_A
(2n|A| flops), and a step X'(X_A d - (xbar_A'd) 1), one pass over X plus
2n|A| flops. No p x p array is made. lam1 = 0 is one ridge solve (in the
n-dimensional row space when p > n), p = 1 the soft-threshold closed
form and p = 0 the null model.

`fit_path` calls `fit` once per grid point. At alpha = 1 it hands each fit
the homotopy of the fit before, which continues down to the next point; at
alpha < 1 lam2 moves with lambda, and each point starts from lambda_max.

Every fit ends with a KKT check on the data it was given: `converged` means
that max(kkt_residuals) / max_j |x_j'(y - mean y)| is at most 1e-8, where
x_j'r of a column with no variance is round-off and counts as zero. A fit
that reaches the step cap returns its last point, flagged, and never raises;
a continued path point that fails the check is redone from lambda_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        for name in ("lam1", "lam2"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise DomainError(f"{name} must be finite and >= 0, got {value!r}")
        for name in ("u", "v"):
            w = getattr(self, name)
            if w is None:
                continue
            w = np.ascontiguousarray(w, dtype=np.float64)
            if w.ndim != 1:
                raise DimensionMismatchError(f"{name} must be 1-d")
            if not (np.isfinite(w).all() and (w > 0.0).all()):
                raise DomainError(f"{name} entries must be positive and finite")
            w.setflags(write=False)
            object.__setattr__(self, name, w)

    def resolve_weights(self, p: int) -> tuple[np.ndarray, np.ndarray]:
        u = self.u if self.u is not None else np.ones(p)
        v = self.v if self.v is not None else np.ones(p)
        if u.shape[0] != p or v.shape[0] != p:
            raise DimensionMismatchError(f"weights must have length {p}")
        return u, v


def from_mixing(alpha: float, lam: float, u=None, v=None) -> PenaltySpec:
    """Penalty from the mixing parameterization: lam1 = alpha*lam, lam2 = (1-alpha)*lam."""
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha!r}")
    if lam < 0.0:
        raise DomainError(f"lam must be >= 0, got {lam!r}")
    return PenaltySpec(lam1=alpha * lam, lam2=(1.0 - alpha) * lam, u=u, v=v)


@dataclass(frozen=True)
class FitResult:
    """Solver output.

    beta/beta0 are on the scale of the data the fit received, where the KKT
    certificate holds. beta_norm/beta0_norm hold the same values (beta_norm
    in an array of its own) and nothing in normreg reads them: they stay only
    because perfbench/test_bench.py constructs a FitResult with them.
    sweeps_used counts homotopy steps (1 for a closed form or ridge solve);
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
    return float(
        0.5 * np.dot(r, r)
        + lam1 * np.dot(u, np.abs(beta))
        + 0.5 * lam2 * np.dot(v, beta * beta)
    )


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
    """What every fit of one Dataset shares, read-only: the column means, the
    columns with no variance, mean(y), X'(y - mean y) (zero on those columns)
    and its largest entry, and a tall design's centered Gram, built once.

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
        if np.any(np.ptp(x[:, suspect], axis=0) > 0.0):
            x, self.shift = x - xbar, xbar
            xbar, gram, raw = _moments(x, p <= n)
            own = raw - n * xbar * xbar
        self.x, self.n, self.xbar = x, n, xbar
        self.dead = own <= _DEAD * raw  # no variance
        self.ybar = float(y.sum() / n)
        self.yc = y - self.ybar
        self.c0 = x.T @ self.yc
        # a dead column's correlation is round-off
        self.c0[self.dead] = 0.0
        self.scale = float(np.max(np.abs(self.c0))) if p else 0.0
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
        self.c0, self.gram, self.dead = setup.c0, setup.gram, setup.dead
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
        c -= self.lam2 * self.v * beta
        return c

    def product(self, idx: np.ndarray, dvec: np.ndarray, stale=None) -> np.ndarray:
        """Centered X'X_A dvec for the active columns idx, the move of c per
        unit step along dvec. A wide design forms X_A dvec from its active
        columns and returns `stale`, the product of the unrefined direction,
        when given one: a second pass over X per step costs more than it gains."""
        if self.gram is not None:
            return dvec @ self.gram[idx]
        if stale is not None:
            return stale
        z = dvec @ self.active[: idx.shape[0]]
        z -= float(self.xbar[idx] @ dvec)
        return self.x.T @ z

    def cross(self, j: int, idx: np.ndarray):
        """(centered x_j'X_A for the active columns idx, centered x_j'x_j)."""
        if self.gram is None:
            xj = self.x[:, j]
            g = self.active[: idx.shape[0]] @ xj
            g -= self.n * self.xbar[j] * self.xbar[idx]
            return g, float(xj @ xj) - self.n * float(self.xbar[j]) ** 2
        return self.gram[j, idx], self.gram[j, j]

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


def _soft_threshold(z: float, t: float) -> float:
    return 0.0 if abs(z) <= t else math.copysign(abs(z) - t, z)


class _Homotopy:
    """The lam1 path at fixed lam2 on a centered design, from lambda_max down."""

    def __init__(self, design: _Design, max_steps: int):
        d = design
        n, p = d.x.shape
        self.d, self.max_steps = d, max_steps
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
        # each step's drop and join times, inf where a bound is not reached
        self.drop_times = np.empty(size)
        self.join_times = np.empty((2, p))
        # the join search's p-sized work arrays; row 0 of each 2 x p one is
        # the upper bound +lam u_j, row 1 the lower bound -lam u_j
        self.tie_u = _TIE * d.u
        self.bound = np.empty(p)
        self.near = np.empty(p)
        self.gap = np.empty((2, p))
        self.rate = np.empty((2, p))
        self.ok = np.empty((2, p), dtype=bool)
        self.first = np.empty(p)
        d.reserve(size, 0)
        self.restart()

    def restart(self) -> None:
        """Start at lambda_max, where the column of largest |c_j| / u_j joins."""
        d = self.d
        self.k = self.steps = self.m = 0
        self.free = ~d.dead  # may join: inactive, not dead, not refused
        self.refused: list[int] = []
        self.dropped, self.left = -1, 0.0  # the last drop, and the bound it left
        self.beta = np.zeros(d.c0.shape[0])
        self.c = d.c0.copy()
        ratio = np.abs(d.c0) / d.u
        while True:
            j = int(np.argmax(np.where(self.free, ratio, -1.0)))
            self.lam = float(ratio[j]) if self.free[j] else 0.0
            if self.lam == 0.0 or self.join(j, 1.0 if d.c0[j] > 0.0 else -1.0):
                return

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

    def join(self, j: int, sign: float) -> bool:
        d, k = self.d, self.k
        idx = self.act[:k]
        g, own = d.cross(j, idx)
        self.free[j] = False
        m = own + d.lam2 * d.v[j]
        w = self.apply(g)
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
            inv[:k, k] = -ws
            inv[k, :k] = -ws
            inv[k, k] = 1.0 / schur
        self.act[k] = j
        self.sgn[k] = sign
        self.k = k + 1
        return True

    def drop(self, i: int) -> None:
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
        self.update(last, col, col / -piv)
        self.k = last
        self.beta[j] = 0.0
        # a smaller active set may no longer span a refused column
        self.free[self.refused] = True
        self.free[j] = True
        self.refused.clear()

    def worn(self, fix: np.ndarray, value: np.ndarray) -> bool:
        """Whether a refinement this large shows an inverse worn down by the
        updates (drops on an ill-conditioned M_A); if so, rebuild it."""
        if np.abs(fix).max() <= _WORN * np.abs(value).max():
            return False
        k = self.k
        self.inv[:k, :k] = np.linalg.inv(self.d.system(self.act[:k]))
        self.m = 0
        return True

    # -- moving along the path -------------------------------------------

    def run(self, lam1: float) -> bool:
        """Follow the path down to lam1; False if the step cap stopped it."""
        d = self.d
        u, v, lam2 = d.u, d.v, d.lam2
        while self.lam > lam1:
            if self.steps >= self.max_steps:
                return False
            self.steps += 1
            k = self.k
            idx = self.act[:k]
            sgn = self.sgn[:k]
            target = u[idx] * sgn
            for attempt in range(2):
                dvec = self.apply(target)
                a = d.product(idx, dvec)
                fix = self.apply(target - a[idx] - lam2 * v[idx] * dvec)
                if attempt or not self.worn(fix, dvec):
                    break
            dvec += fix
            a = d.product(idx, dvec, stale=a)
            c, lam = self.c, self.lam
            # drops: an active coefficient reaches zero
            bk = self.beta[idx]
            toward = sgn * dvec < 0.0
            t_drop, i_drop = math.inf, -1
            if toward.any():
                td = self.drop_times[:k]
                td.fill(math.inf)
                np.divide(-bk, dvec, out=td, where=toward)
                i_drop = int(np.argmin(td))
                t_drop = max(float(td[i_drop]), 0.0)
            # joins: a free column reaches +lam u_j (row 0) or -lam u_j (row
            # 1); one already within _TIE of its bound joins now if the
            # direction takes it outward by more than round-off. The column
            # that just dropped left its bound on side `left`, so on this
            # segment it can only reach the other one.
            bound, gap, rate, ok = self.bound, self.gap, self.rate, self.ok
            np.multiply(lam, u, out=bound)
            np.subtract(bound, c, out=gap[0])
            np.add(bound, c, out=gap[1])
            np.multiply(_TIE, bound, out=self.near)
            np.less_equal(gap, self.near, out=ok)
            np.copyto(gap, 0.0, where=ok)
            np.subtract(u, a, out=rate[0])
            np.add(u, a, out=rate[1])
            np.greater(rate, self.tie_u, out=ok)
            np.logical_and(ok, self.free, out=ok)
            if self.left:
                ok[0 if self.left > 0.0 else 1, self.dropped] = False
            self.join_times.fill(math.inf)
            np.divide(gap, rate, out=self.join_times, where=ok)
            times = self.join_times.min(axis=0, out=self.first)
            j_join = int(times.argmin())
            t_join = float(times[j_join])
            t = min(t_drop, t_join, lam - lam1)
            self.beta[idx] = bk + t * dvec
            c -= t * a
            self.lam = lam1 if t >= lam - lam1 else lam - t
            c[idx] = self.lam * target
            if self.lam == lam1:
                break
            if t_drop <= t_join:
                self.drop(i_drop)
            else:
                self.dropped, self.left = -1, 0.0
                self.join(j_join, 1.0 if c[j_join] > 0.0 else -1.0)
        return True

    def solve(self, lam: float) -> np.ndarray:
        """beta at lam on the current active set and signs, refined once;
        a coefficient against its sign is dropped and the rest re-solved."""
        d = self.d
        while True:
            k = self.k
            beta = np.zeros(self.beta.shape[0])
            if not k:
                return beta
            idx = self.act[:k]
            sgn = self.sgn[:k]
            target = lam * d.u[idx] * sgn
            for attempt in range(2):
                beta[idx] = self.apply(d.c0[idx] - target)
                fix = self.apply(d.correlations(beta, idx)[idx] - target)
                if attempt or not self.worn(fix, beta[idx]):
                    break
            beta[idx] += fix
            signed = beta[idx] * sgn
            if signed.min() > 0.0:
                return beta
            self.drop(int(np.argmin(signed)))


def _max_steps(p: int) -> int:
    # a safeguard: criterion 7's fits take at most 645 steps at p = 1000
    return 100 + 10 * p


def _kkt(x, r, beta, lam1, lam2, u, v, dead) -> np.ndarray:
    """Per-coordinate KKT residual at residual r: |stationarity| on the
    support, the excess of |x_j'r| over lam1 u_j (or 0) off it. A dead
    column's x_j'r is round-off, taken as zero."""
    grads = x.T @ r
    grads[dead] = 0.0
    station = np.abs(grads - lam2 * v * beta - lam1 * u * np.sign(beta))
    excess = np.maximum(np.abs(grads) - lam1 * u, 0.0)
    return np.where(beta != 0.0, station, excess)


def _optimum(design: _Design, lam1: float, path: _Homotopy | None):
    """(beta, steps, continued) of the centered problem at lam1; continued
    tells whether path went on from a point below lambda_max."""
    x, u, v, lam2 = design.x, design.u, design.v, design.lam2
    n, p = x.shape
    if p <= 1:
        beta = np.zeros(p)
        if not design.dead.all():  # p = 0 is the null model
            g = float(x[:, 0] @ x[:, 0]) - n * float(design.xbar[0]) ** 2
            beta[0] = _soft_threshold(float(design.c0[0]), lam1 * u[0]) / (g + lam2 * v[0])
        return beta, 1, False
    if lam1 == 0.0:
        return design.ridge(), 1, False
    if path is None:
        path = _Homotopy(design, _max_steps(p))
    elif not path.k or path.lam < lam1:
        # an empty active set, above lambda_max, has no direction to go on along
        path.restart()
    start = path.steps
    finished = path.run(lam1)
    return (path.solve(lam1) if finished else path.beta.copy()), path.steps - start, start > 0


def fit(
    data: Dataset,
    penalty: PenaltySpec,
    *,
    continuation: _Homotopy | None = None,
) -> FitResult:
    """Solve the weighted elastic net on data exactly.

    A normalized fit is this fit at weights u = s u0, v = s^2 v0 (see the
    module docstring). continuation is fit_path's: the homotopy of the point
    before, on this data at penalty's weights and lam2.
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
        worst = float(_kkt(x, r, beta, lam1, lam2, u, v, setup.dead).max(initial=0.0))
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
    u_arr = PenaltySpec(0.0, u=u).resolve_weights(data.p)[0]
    value = float(np.max(np.abs(_setup(data).c0) / u_arr)) if data.p else 0.0
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
    starts from lambda_max. Every fit shares the data's set-up.
    """
    path = None
    if alpha == 1.0 and data.p > 1:  # p <= 1 has a closed form
        weights = PenaltySpec(0.0, u=u, v=v).resolve_weights(data.p)
        path = _Homotopy(_Design(_setup(data), *weights, 0.0), _max_steps(data.p))
    return [
        fit(data, from_mixing(alpha, float(lam), u=u, v=v), continuation=path) for lam in lambdas
    ]


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
