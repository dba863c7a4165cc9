"""Tableau simplex solver for small and medium linear programs.

Problems are held in standard form, maximize ``c . x`` subject to
``A x = b`` and ``x >= 0``.  The solver is a two-phase simplex on a dense
tableau with Bland's anti-cycling rule, which terminates in finitely many
pivots and is fully deterministic: identical programs yield identical
results.

A pivot updates only the rows whose pivot-column entry is nonzero, and in
them only the columns where the pivot row is nonzero; the pivot columns of
flow programs are almost all zero, so most of the tableau is never touched.
The entering column and the ratio-test candidates are found with numpy,
while the ratio test itself still visits its candidates in row order, so
the pivot sequence is the one Bland's rule fixes.  Pivots, iteration counts
and results are bitwise those of a full outer-product update.
"""

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StandardFormLP",
    "LPResult",
    "LPStatus",
    "LPNumericError",
    "solve",
    "from_inequalities",
]

#: Relative primal feasibility tolerance for certified optima.
FEASIBILITY_TOL = 1e-9
#: Entries below this magnitude are never used as pivots.
PIVOT_TOL = 1e-10

_MAX_PIVOTS = 200_000


class LPNumericError(RuntimeError):
    """The tableau lost too much precision to certify the result."""


class LPStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class StandardFormLP:
    """Maximize ``c . x`` subject to ``A x = b``, ``x >= 0``.

    ``n_structural`` records how many leading variables are the caller's
    original ones when the program was built via :func:`from_inequalities`;
    the remaining columns are slacks.
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    n_structural: int | None = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.A = np.asarray(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.A.ndim != 2:
            raise ValueError("A must be a matrix")
        m, n = self.A.shape
        if self.c.shape != (n,):
            raise ValueError(f"c has shape {self.c.shape}, expected ({n},)")
        if self.b.shape != (m,):
            raise ValueError(f"b has shape {self.b.shape}, expected ({m},)")
        if not np.all(np.isfinite(self.c)):
            raise ValueError("c must be finite")
        if not np.all(np.isfinite(self.b)):
            raise ValueError("b must be finite")
        if not np.all(np.isfinite(self.A)):
            raise ValueError("A must be finite")
        if self.n_structural is None:
            self.n_structural = n


@dataclass
class LPResult:
    status: LPStatus
    value: float
    solution: np.ndarray
    iterations: int


def from_inequalities(c, A_ineq=None, b_ineq=None, A_eq=None, b_eq=None):
    """Build a standard-form program from ``A_ineq x <= b_ineq`` and
    ``A_eq x = b_eq`` by appending one slack variable per inequality row.

    The objective of the slack variables is zero.  The returned program's
    ``n_structural`` equals ``len(c)`` so callers can slice original
    variables back out of a solution vector.
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    if A_ineq is None:
        A_ineq = np.zeros((0, n))
        b_ineq = np.zeros(0)
    if A_eq is None:
        A_eq = np.zeros((0, n))
        b_eq = np.zeros(0)
    A_ineq = np.asarray(A_ineq, dtype=float).reshape(-1, n)
    A_eq = np.asarray(A_eq, dtype=float).reshape(-1, n)
    b_ineq = np.asarray(b_ineq, dtype=float).ravel()
    b_eq = np.asarray(b_eq, dtype=float).ravel()
    if A_ineq.shape[0] != b_ineq.shape[0]:
        raise ValueError("A_ineq and b_ineq row counts differ")
    if A_eq.shape[0] != b_eq.shape[0]:
        raise ValueError("A_eq and b_eq row counts differ")

    k = A_ineq.shape[0]
    A = np.zeros((k + A_eq.shape[0], n + k))
    A[:k, :n] = A_ineq
    A[:k, n:] = np.eye(k)
    A[k:, :n] = A_eq
    b = np.concatenate([b_ineq, b_eq])
    c_full = np.concatenate([c, np.zeros(k)])
    return StandardFormLP(c=c_full, A=A, b=b, n_structural=n)


def _pivot(T, basis, row, col):
    """Pivot on ``T[row, col]``, touching only the entries that change.

    Entry ``(i, j)`` changes only when both ``T[i, col]`` and ``T[row, j]``
    are nonzero, and there it gets ``T[i, j] - T[i, col] * T[row, j]``
    exactly as in a full outer-product update.  Everywhere else that
    update subtracts a zero, which changes at most the sign of a zero
    entry.  The one such sign a result shows is a basic value, read from
    the right-hand side of the row its variable was pivoted into; adding
    0.0 there turns -0.0 into +0.0 as the full update does, so results
    are bitwise those of the full update.
    """
    pivot_row = T[row] / T[row, col]
    pivot_row[-1] += 0.0
    rows = T[:, col].nonzero()[0][:, np.newaxis]
    cols = pivot_row.nonzero()[0]
    T[rows, cols] -= T[rows, col] * pivot_row[cols]
    T[row] = pivot_row  # the update above also hit the pivot row
    basis[row] = col


def _simplex_phase(T, basis, n_cols, iterations):
    """Run Bland-rule pivots on tableau ``T`` until optimal or unbounded.

    The last row of ``T`` holds the reduced costs of a maximization (optimal
    when all reduced costs are <= tolerance); the last column holds the
    right-hand side.  Only the first ``n_cols`` columns are eligible to
    enter.  Returns (status_is_optimal, iterations).
    """
    m = T.shape[0] - 1
    while True:
        improving = T[-1, :n_cols] > PIVOT_TOL
        entering = int(improving.argmax())  # Bland: smallest improving index
        if not improving[entering]:
            return True, iterations
        col = T[:m, entering]
        candidates = (col > PIVOT_TOL).nonzero()[0]
        ratios = T[candidates, -1] / col[candidates]
        best_ratio = np.inf
        leaving = -1
        # Sequential on purpose: the tie window moves with best_ratio, and
        # ties go to the smallest basic index, which Bland's rule needs.
        for i, ratio in zip(candidates.tolist(), ratios.tolist()):
            if ratio < best_ratio - PIVOT_TOL or (
                    abs(ratio - best_ratio) <= PIVOT_TOL
                    and (leaving < 0 or basis[i] < basis[leaving])):
                best_ratio = ratio
                leaving = i
        if leaving < 0:
            return False, iterations  # unbounded direction
        _pivot(T, basis, leaving, entering)
        iterations += 1
        if iterations > _MAX_PIVOTS:
            raise LPNumericError(
                f"simplex exceeded {_MAX_PIVOTS} pivots; "
                "the instance is too ill-conditioned for this solver")


def solve(lp):
    """Solve a standard-form program with the two-phase tableau simplex.

    Returns
    -------
    LPResult
        With status OPTIMAL the solution satisfies
        ``|A x - b| <= 1e-9 * (1 + max|b|)`` row-wise and ``x >= -1e-9``.
        Degenerate programs return the first optimal basis found under
        Bland's rule; only ``value`` is contractual, the solution vector is
        one optimizer among possibly many.

    Raises
    ------
    LPNumericError
        If the final tableau fails the feasibility certificate.
    """
    A = lp.A.copy()
    b = lp.b.copy()
    c = lp.c.copy()
    m, n = A.shape
    if m == 0:
        # No constraints: optimum is 0 at x = 0 unless some objective
        # coefficient is positive, in which case the program is unbounded.
        if np.any(c > PIVOT_TOL):
            return LPResult(LPStatus.UNBOUNDED, np.inf, np.zeros(n), 0)
        return LPResult(LPStatus.OPTIMAL, 0.0, np.zeros(n), 0)

    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # Phase 1: artificial basis, maximize -(sum of artificials).
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    basis = list(range(n, n + m))
    T[-1, :n] = A.sum(axis=0)          # reduced costs of maximizing -sum(a)
    T[-1, -1] = b.sum()                # current phase-1 objective offset

    _, iterations = _simplex_phase(T, basis, n + m, 0)
    if T[-1, -1] > FEASIBILITY_TOL * (1.0 + np.abs(b).max(initial=0.0)):
        return LPResult(LPStatus.INFEASIBLE, np.nan, np.full(n, np.nan),
                        iterations)

    # Drive any residual artificial out of the basis, dropping rows that
    # turned out redundant.
    keep_rows = []
    for i in range(m):
        if basis[i] >= n:
            usable = np.flatnonzero(np.abs(T[i, :n]) > PIVOT_TOL)
            if usable.size == 0:
                continue  # redundant constraint
            _pivot(T, basis, i, int(usable[0]))
            iterations += 1
        keep_rows.append(i)
    rows = keep_rows + [m]
    T = T[rows][:, list(range(n)) + [n + m]]
    basis = [basis[i] for i in keep_rows]

    # Phase 2: restore the real objective expressed in the current basis.
    T[-1, :n] = c
    T[-1, -1] = 0.0
    # Basic columns are unit vectors, so each row's coefficient is its
    # basic variable's cost, unchanged by the rows subtracted before it.
    costs = c[basis]
    for i in np.flatnonzero(costs):
        T[-1] -= costs[i] * T[i]

    optimal, iterations = _simplex_phase(T, basis, n, iterations)
    if not optimal:
        return LPResult(LPStatus.UNBOUNDED, np.inf, np.full(n, np.nan),
                        iterations)

    x = np.zeros(n)
    for i, bi in enumerate(basis):
        x[bi] = T[i, -1]
    residual = np.abs(lp.A @ x - lp.b).max(initial=0.0)
    bound = FEASIBILITY_TOL * (1.0 + np.abs(lp.b).max(initial=0.0))
    if residual > bound:
        raise LPNumericError(
            f"feasibility residual {residual:.3e} exceeds {bound:.3e}")
    if x.min(initial=0.0) < -FEASIBILITY_TOL:
        raise LPNumericError("negative component in claimed-optimal solution")
    return LPResult(LPStatus.OPTIMAL, float(lp.c @ x), x, iterations)
