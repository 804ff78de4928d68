"""Finite-size scaling fits: power and exponential laws, optional offset.

Supported laws, with size N and parameters (a, b) or (a, b, c):

    power         value = a * N**b
    power-offset  value = a * N**b + c
    exp           value = a * exp(b*N)
    exp-offset    value = a * exp(b*N) + c

A kind is named as above, in any letter case.  Every law is
``a * exp(b*x) [+ c]`` in the abscissa ``x = log N`` (power kinds) or
``x = N`` (exp kinds).  No-offset kinds reduce to exact linear
regression in log space.  Offset kinds use variable projection (Golub &
Pereyra, SIAM J. Numer. Anal. 10 (1973) 413): for a fixed exponent, ``a``
and ``c`` solve a two-column linear least-squares problem, so only a 1-D
search over the exponent remains, followed by one Levenberg-Marquardt
polish of all three parameters.  The search scores a coarse exponent grid
in one array pass, by the closed form of the two-column problem, and
refines the best grid point by bounded Brent through ``lstsq``; the
refinement and the final linear coefficients keep ``lstsq``, so a fit is
bit-identical to one whose grid is scored by ``lstsq`` as well whenever
both pick the same grid point.  ``extrapolate`` reads off the
N -> infinity asymptote of a converged fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Sample",
    "FitResult",
    "FitError",
    "fit",
    "extrapolate",
    "fit_with_window",
]

_KINDS = ("power", "power-offset", "exp", "exp-offset")

# exponent grid of the offset search, in units of 1 / (x_max - x_min)
_BETA_GRID = np.linspace(-60.0, 60.0, 241)

# most small sizes that ``fit_with_window`` drops
_WINDOW_MAX_DROPS = 3


def _coerce_kind(kind) -> str:
    key = str(kind).strip().lower()
    if key not in _KINDS:
        raise ValueError(f"unknown fit kind: {kind!r}; expected one of {_KINDS}")
    return key


def _has_offset(kind: str) -> bool:
    return kind.endswith("-offset")


def _abscissa(kind: str, N):
    """The x in which the law reads a*exp(b*x): log N for power kinds, N for exp."""
    N = np.asarray(N, dtype=float)
    return np.log(N) if kind.startswith("power") else N


@dataclass(frozen=True)
class Sample:
    """One data point of a finite-size law."""

    N: int
    value: float

    def __post_init__(self):
        if int(self.N) < 2:
            raise ValueError("sample size N must be >= 2")
        if not math.isfinite(self.value):
            raise ValueError("sample value must be finite")


@dataclass(frozen=True)
class FitResult:
    """Converged parameters of a scaling law; c is None for no-offset kinds."""

    kind: str
    a: float
    b: float
    c: float | None
    rms_residual: float
    n_points: int

    def predict(self, N):
        """Model value at size N; accepts scalars or arrays."""
        val = self.a * np.exp(self.b * _abscissa(self.kind, N))
        if self.c is not None:
            val = val + self.c
        return val if val.ndim else float(val)


class FitError(RuntimeError):
    """Nonlinear fit did not converge; ``iterate`` holds the best point found."""

    def __init__(self, message: str, iterate=None):
        super().__init__(message)
        self.iterate = iterate


def _coerce_samples(samples):
    Ns, vals = [], []
    for s in samples:
        if isinstance(s, Sample):
            Ns.append(int(s.N))
            vals.append(float(s.value))
        else:
            n, v = s
            Ns.append(int(n))
            vals.append(float(v))
    Ns = np.asarray(Ns, dtype=float)
    vals = np.asarray(vals, dtype=float)
    if np.any(Ns < 2):
        raise ValueError("sample sizes must be >= 2")
    if not np.all(np.isfinite(vals)):
        raise ValueError("sample values must be finite")
    order = np.argsort(Ns)
    return Ns[order], vals[order]


def _log_linear(kind: str, Ns, vals):
    """Exact log-space regression for a*N**b or a*exp(b*N); single-signed data."""
    pos, neg = np.all(vals > 0), np.all(vals < 0)
    if not (pos or neg):
        raise ValueError(
            "sign-mixed data cannot be log-linearized; use an offset kind")
    sign = 1.0 if pos else -1.0
    b, log_a = np.polyfit(_abscissa(kind, Ns), np.log(np.abs(vals)), 1)
    return sign * math.exp(log_a), float(b)


def _project(beta: float, t, vals):
    """Linear least squares for (A, c) in ``A*exp(beta*t - max(beta, 0)) + c``
    at a fixed exponent; returns the residual sum of squares, A and c.  The
    exponential peaks at 1 on ``t`` in [0, 1], so both columns stay of
    order one."""
    basis = np.column_stack([np.exp(beta * t - max(beta, 0.0)), np.ones_like(t)])
    coef = np.linalg.lstsq(basis, vals, rcond=None)[0]
    r = basis @ coef - vals
    return float(r @ r), coef[0], coef[1]


def _profile(t, vals):
    """The residual sum of squares of ``_project`` at every exponent of
    ``_BETA_GRID``, in one array pass: the centred closed form of the
    two-column least-squares problem.  The column ``expm1(beta*t - max(beta,
    0))`` spans what ``_project``'s exponential and constant columns span,
    and keeps its relative precision as beta -> 0; at beta = 0 it vanishes,
    A = 0, and the RSS is the constant fit's.  The residual is formed
    before it is squared, so a near-exact fit keeps its small RSS instead
    of the rounding of a difference of squares."""
    col = np.expm1(np.multiply.outer(_BETA_GRID, t) - np.maximum(_BETA_GRID, 0.0)[:, None])
    col -= col.mean(axis=1, keepdims=True)
    v = vals - vals.mean()
    norm = np.einsum("ij,ij->i", col, col)
    A = np.divide(col @ v, norm, out=np.zeros_like(norm), where=norm > 0.0)
    r = v - A[:, None] * col
    return np.einsum("ij,ij->i", r, r)


# Module-level forwarders, looked up by name on every call so a tracer can
# patch them; each imports scipy.optimize on first use (~0.2 s of start-up).
def least_squares(*args, **kwargs):
    from scipy.optimize import least_squares
    return least_squares(*args, **kwargs)


def minimize_scalar(*args, **kwargs):
    from scipy.optimize import minimize_scalar
    return minimize_scalar(*args, **kwargs)


def _fit_offset(kind: str, Ns, vals):
    """Variable projection: a and c are linear once b is fixed, so only the
    exponent is searched, as ``beta = b * (x_max - x_min)``: the best point
    of a coarse grid, scored in one pass by `_profile`, refined by bounded
    Brent on `_project`, then one Levenberg-Marquardt polish of all three
    parameters.  Brent and the start (A, c) of the polish use `_project`'s
    ``lstsq``, so the fit is bit-identical to one that scores the grid by
    `_project` too whenever both pick the same grid point.  They can differ
    only where the profile is flat to the rounding of the data, where
    either pick is as good as rounding can tell."""
    if np.ptp(vals) == 0.0:
        raise ValueError("constant data leaves the law parameters undetermined")
    x = _abscissa(kind, Ns)
    span = x[-1] - x[0]
    t = (x - x[0]) / span
    i = int(np.argmin(_profile(t, vals)))
    lo, hi = _BETA_GRID[max(i - 1, 0)], _BETA_GRID[min(i + 1, _BETA_GRID.size - 1)]
    beta = minimize_scalar(lambda v: _project(v, t, vals)[0], bounds=(lo, hi),
                           method="bounded", options={"xatol": 1e-10}).x
    _, A, c = _project(beta, t, vals)
    # A*exp(beta*t - max(beta, 0)) == A*exp(b*(x - x_ref)), b = beta/span
    x_ref = x[-1] if beta > 0 else x[0]

    def fun(p):
        return p[0] * np.exp(p[1] * (x - x_ref)) + p[2] - vals

    with np.errstate(over="ignore", invalid="ignore"):
        sol = least_squares(fun, x0=[A, beta / span, c], method="lm",
                            xtol=1e-15, ftol=1e-15, gtol=1e-15,
                            max_nfev=20000)
    if not (sol.success and np.all(np.isfinite(sol.x))):
        raise FitError(f"offset fit stalled: {sol.message}",
                       iterate=tuple(sol.x))
    A, b, c = sol.x
    return float(A * math.exp(-b * x_ref)), float(b), float(c)


def fit(kind, samples) -> FitResult:
    """Fit a scaling law to (N, value) samples.

    Parameters
    ----------
    kind : {'power', 'power-offset', 'exp', 'exp-offset'}
        Law to fit, in any letter case; no other spelling is accepted.
    samples : iterable of Sample or (N, value) pairs

    Returns
    -------
    FitResult

    Raises
    ------
    ValueError
        Fewer distinct sizes than parameters + 1, or sign-mixed data for a
        no-offset kind.
    FitError
        The nonlinear engine did not converge; carries its last iterate.
    """
    kind = _coerce_kind(kind)
    Ns, vals = _coerce_samples(samples)
    n_free = 3 if _has_offset(kind) else 2
    if np.unique(Ns).size < n_free + 1:
        raise ValueError(f"{kind} fit needs at least {n_free + 1} distinct sizes")

    if _has_offset(kind):
        a, b, c = _fit_offset(kind, Ns, vals)
    else:
        a, b = _log_linear(kind, Ns, vals)
        c = None

    result = FitResult(kind, float(a), float(b), c, 0.0, len(Ns))
    resid = result.predict(Ns) - vals
    rms = float(np.sqrt(np.mean(resid ** 2)))
    return FitResult(kind, float(a), float(b), c, rms, len(Ns))


def extrapolate(fit_result: FitResult) -> float:
    """N -> infinity limit of a fitted law: c for offset kinds, else 0."""
    if fit_result.b >= 0:
        raise ValueError(
            f"b = {fit_result.b:.6g} >= 0: the law has no large-N asymptote")
    if fit_result.c is not None:
        return float(fit_result.c)
    return 0.0


def fit_with_window(kind, samples):
    """Fit with the small-N window policy.

    The smallest size is excluded while its deleted residual (its deviation
    from the law fitted to the remaining points) exceeds 3x that fit's rms:
    small sizes carry subleading corrections outside the fitted law, and a
    flexible offset law fitted to all points would bend through such a
    point instead of exposing it.  At most three sizes are removed, never
    going below the minimum count of distinct sizes.

    Returns ``(FitResult, samples_used)``.
    """
    kind = _coerce_kind(kind)
    Ns, vals = _coerce_samples(samples)
    n_free = 3 if _has_offset(kind) else 2
    floor = 1e-12 * max(1.0, float(np.max(np.abs(vals))))
    drops = 0
    while drops < _WINDOW_MAX_DROPS and np.unique(Ns[1:]).size > n_free:
        rest = fit(kind, list(zip(Ns[1:], vals[1:])))
        deleted = rest.predict(Ns[0]) - vals[0]
        if abs(deleted) <= 3.0 * max(rest.rms_residual, floor):
            break
        Ns, vals = Ns[1:], vals[1:]
        drops += 1
    pairs = [Sample(int(n), float(v)) for n, v in zip(Ns, vals)]
    return fit(kind, pairs), pairs
