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
both pick the same grid point.  Brent (`_bounded_brent`) and the
Levenberg-Marquardt polish (`least_squares`) are written here, so a fit
loads no scipy.  ``extrapolate`` reads off the N -> infinity asymptote of
a converged fit.
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


def _bounded_brent(f, lo: float, hi: float, xatol: float) -> float:
    """Minimiser of f on [lo, hi] by Brent's method, golden sections and
    parabolic steps (Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 5), step for step as scipy's bounded
    `minimize_scalar` (`fminbound`), with the same stop: the best point
    lies within 2 tol of the bracket's midpoint, tol = sqrt(2.2e-16) |x| +
    xatol/3.  At most 500 evaluations."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    # x the best point so far, w the second best, v the previous w
    x = w = v = a + golden * (b - a)
    fx = fw = fv = f(x)
    step = d = 0.0
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(x) + xatol / 3.0
    tol2 = 2.0 * tol1
    for _ in range(499):
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            break
        parabolic = False
        if abs(step) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, step = step, d
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                parabolic = True
                d = (p + 0.0) / q
                u = x + d
                if (u - a) < tol2 or (b - u) < tol2:
                    d = tol1 if xm >= x else -tol1
        if not parabolic:
            step = (a - x) if x >= xm else (b - x)
            d = golden * step
        u = x + (-1.0 if d < 0 else 1.0) * max(abs(d), tol1)
        fu = f(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(x) + xatol / 3.0
        tol2 = 2.0 * tol1
    return x


@dataclass(frozen=True)
class LeastSquaresResult:
    """Outcome of `least_squares`: the last accepted point, the number of
    residual evaluations, and whether a convergence test stopped it."""

    x: np.ndarray
    nfev: int
    success: bool
    message: str


# an eigenvalue of the scaled normal matrix at or below this share of the
# largest is rounding, and counts as 0
_RANK_CUT = 3.0 * np.finfo(float).eps


def _eigen_step(s, c, par: float):
    """Eigen-components of the scaled LM step -(V diag(s) V^T + par)^-1 V c,
    s ascending.  At par = 0 it is the Gauss-Newton step on the numerical
    range: the components of eigenvalues below `_RANK_CUT` are dropped."""
    if par > 0.0:
        return -c / (s + par)
    return -c / np.where(s > _RANK_CUT * s[-1], s, np.inf)


def _lm_parameter(s, c, delta: float, par: float) -> float:
    """The LM parameter of Moré's lmpar, for the scaled normal matrix
    V diag(s) V^T and scaled gradient V c: 0 when the Gauss-Newton step
    fits in the trust radius delta (within 10%), else a par whose step
    length lies within 10% of delta, by Newton on 1/||step|| (Hebden),
    safeguarded to [parl, paru] and started from the previous ``par``, at
    most 10 steps."""
    z = _eigen_step(s, c, 0.0)
    dxnorm = math.sqrt(z @ z)
    fp = dxnorm - delta
    if fp <= 0.1 * delta:
        return 0.0
    # Newton's correction from the step z at par: (fp/delta) ||z||^2 / z^T (A + par)^-1 z
    full_rank = s[0] > _RANK_CUT * s[-1]
    parl = fp / delta * dxnorm ** 2 / float(z @ (z / s)) if full_rank else 0.0
    gnorm = math.sqrt(c @ c)
    paru = gnorm / delta or np.finfo(float).tiny / min(delta, 0.1)
    par = min(max(par, parl), paru) or gnorm / dxnorm
    for step in range(10):
        if par == 0.0:
            par = max(np.finfo(float).tiny, 0.001 * paru)
        z = _eigen_step(s, c, par)
        dxnorm = math.sqrt(z @ z)
        previous, fp = fp, dxnorm - delta
        if abs(fp) <= 0.1 * delta or (parl == 0.0 and fp <= previous < 0.0) or step == 9:
            break
        parc = fp / delta * dxnorm ** 2 / float(z @ (z / (s + par)))
        if fp > 0.0:
            parl = max(parl, par)
        elif fp < 0.0:
            paru = min(paru, par)
        par = max(parl, par + parc)
    return par


def least_squares(fun, jac, x0, *, ftol: float, xtol: float, gtol: float,
                  max_nfev: int) -> LeastSquaresResult:
    """Minimise ||fun(x)|| over a few parameters by Levenberg-Marquardt in
    the trust-region form of MINPACK's lmder (Moré, The Levenberg-Marquardt
    algorithm: implementation and theory, LNM 630, 1978), with the
    analytic Jacobian ``jac(x)``.  As in lmder: the variables are scaled by
    the largest column norms of the Jacobian seen so far, the trust radius
    and the LM parameter are updated by its rules, a step is kept when it
    achieves at least 1e-4 of its predicted reduction, and it stops on
    ``ftol`` (actual and predicted relative reductions of the sum of
    squares), ``xtol`` (trust radius relative to the scaled point),
    ``gtol`` (cosine between the residual and every Jacobian column) or
    ``max_nfev`` residual evaluations, the last a failure.  The scaled
    normal matrix of each Jacobian is diagonalised once, so the step of
    any LM parameter is a closed form.  `_fit_offset` looks it up by name
    at call time, so a tracer can wrap it; ``nfev`` counts residual
    evaluations."""
    x = np.asarray(x0, dtype=float)
    f = fun(x)
    nfev, fnorm = 1, float(np.linalg.norm(f))
    accepted = False
    par = 0.0
    while True:
        J = jac(x)
        colnorm = np.linalg.norm(J, axis=0)
        if not accepted:
            diag = np.where(colnorm > 0.0, colnorm, 1.0)
            xnorm = float(np.linalg.norm(diag * x))
            delta = 100.0 * xnorm or 100.0
        grad = J.T @ f
        live = colnorm > 0.0
        if fnorm == 0.0 or np.max(np.abs(grad[live]) / (fnorm * colnorm[live]),
                                  initial=0.0) <= gtol:
            return LeastSquaresResult(x, nfev, True, "gtol condition satisfied")
        diag = np.maximum(diag, colnorm)
        Js = J / diag
        s, V = np.linalg.eigh(Js.T @ Js)
        c = V.T @ (grad / diag)
        while True:
            par = _lm_parameter(s, c, delta, par)
            z = V @ _eigen_step(s, c, par)
            pnorm = float(np.linalg.norm(z))
            if not accepted:
                delta = min(delta, pnorm)
            x_new = x + z / diag
            f_new = fun(x_new)
            nfev += 1
            fnorm1 = float(np.linalg.norm(f_new))
            actred = 1.0 - (fnorm1 / fnorm) ** 2 if 0.1 * fnorm1 < fnorm else -1.0
            temp1 = float(np.linalg.norm(Js @ z)) / fnorm
            temp2 = math.sqrt(par) * pnorm / fnorm
            prered = temp1 ** 2 + temp2 ** 2 / 0.5
            dirder = -(temp1 ** 2 + temp2 ** 2)
            ratio = actred / prered if prered != 0.0 else 0.0
            if ratio <= 0.25:
                temp = 0.5 if actred >= 0.0 else 0.5 * dirder / (dirder + 0.5 * actred)
                if 0.1 * fnorm1 >= fnorm or temp < 0.1:
                    temp = 0.1
                delta = temp * min(delta, pnorm / 0.1)
                par = par / temp
            elif par == 0.0 or ratio >= 0.75:
                delta = pnorm / 0.5
                par = 0.5 * par
            if ratio >= 1e-4:
                x, f, fnorm = x_new, f_new, fnorm1
                xnorm = float(np.linalg.norm(diag * x))
                accepted = True
            if abs(actred) <= ftol and prered <= ftol and 0.5 * ratio <= 1.0:
                return LeastSquaresResult(x, nfev, True, "ftol condition satisfied")
            if delta <= xtol * xnorm:
                return LeastSquaresResult(x, nfev, True, "xtol condition satisfied")
            if nfev >= max_nfev:
                return LeastSquaresResult(x, nfev, False,
                                          f"{max_nfev} residual evaluations exceeded")
            if ratio >= 1e-4:
                break


def _fit_offset(kind: str, Ns, vals):
    """Variable projection: a and c are linear once b is fixed, so only the
    exponent is searched, as ``beta = b * (x_max - x_min)``: the best point
    of a coarse grid, scored in one pass by `_profile`, refined by the
    bounded Brent of `_bounded_brent` on `_project` (to xatol = 1e-10),
    then one polish of all three parameters by the Levenberg-Marquardt of
    `least_squares`, with the analytic Jacobian [e, A (x - x_ref) e, 1],
    started from the projected point.  Brent does not pin the exponent of
    an exact law to rounding; the polish does.  Brent and the start
    (A, c) of the polish use `_project`'s ``lstsq``, so the fit is
    bit-identical to one that scores the grid by `_project` too whenever
    both pick the same grid point.  They can differ only where the
    profile is flat to the rounding of the data, where either pick is as
    good as rounding can tell.  A polish that stops on its evaluation cap,
    or at a non-finite point, or whose amplitude at N = 0 overflows,
    raises FitError with its last iterate."""
    if np.ptp(vals) == 0.0:
        raise ValueError("constant data leaves the law parameters undetermined")
    x = _abscissa(kind, Ns)
    span = x[-1] - x[0]
    t = (x - x[0]) / span
    i = int(np.argmin(_profile(t, vals)))
    lo, hi = _BETA_GRID[max(i - 1, 0)], _BETA_GRID[min(i + 1, _BETA_GRID.size - 1)]
    beta = _bounded_brent(lambda v: _project(v, t, vals)[0], lo, hi, xatol=1e-10)
    _, A, c = _project(beta, t, vals)
    # A*exp(beta*t - max(beta, 0)) == A*exp(b*(x - x_ref)), b = beta/span
    x_ref = x[-1] if beta > 0 else x[0]
    dx = x - x_ref

    def fun(p):
        return p[0] * np.exp(p[1] * dx) + p[2] - vals

    def jac(p):
        e = np.exp(p[1] * dx)
        return np.column_stack([e, p[0] * dx * e, np.ones_like(e)])

    with np.errstate(over="ignore", invalid="ignore"):
        sol = least_squares(fun, jac, [A, beta / span, c], xtol=1e-15, ftol=1e-15,
                            gtol=1e-15, max_nfev=20000)
    if not (sol.success and np.all(np.isfinite(sol.x))):
        raise FitError(f"offset fit stalled: {sol.message}",
                       iterate=tuple(sol.x))
    A, b, c = sol.x
    try:
        return float(A * math.exp(-b * x_ref)), float(b), float(c)
    except OverflowError:
        raise FitError(f"offset fit overflows: b = {b:.6g}", iterate=tuple(sol.x)) from None


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
        The nonlinear engine did not converge, or a parameter or the rms
        residual is not finite; carries the last iterate.
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
    with np.errstate(over="ignore", invalid="ignore"):
        resid = result.predict(Ns) - vals
        rms = float(np.sqrt(np.mean(resid ** 2)))
    if not all(map(math.isfinite, (a, b, 0.0 if c is None else c, rms))):
        raise FitError(f"{kind} fit is not finite: a = {a:.6g}, b = {b:.6g}, "
                       f"c = {c}, rms = {rms:.6g}", iterate=(a, b, c))
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
    point instead of exposing it.  The smallest size is also excluded when
    the remaining points admit no finite fit (FitError).  At most three
    sizes are removed, never going below the minimum count of distinct
    sizes.

    Returns ``(FitResult, samples_used)``.
    """
    kind = _coerce_kind(kind)
    Ns, vals = _coerce_samples(samples)
    n_free = 3 if _has_offset(kind) else 2
    floor = 1e-12 * max(1.0, float(np.max(np.abs(vals))))
    drops = 0
    while drops < _WINDOW_MAX_DROPS and np.unique(Ns[1:]).size > n_free:
        try:
            rest = fit(kind, list(zip(Ns[1:], vals[1:])))
            deleted = rest.predict(Ns[0]) - vals[0]
            if abs(deleted) <= 3.0 * max(rest.rms_residual, floor):
                break
        except FitError:
            pass   # no finite law through the rest to hold the smallest size to
        Ns, vals = Ns[1:], vals[1:]
        drops += 1
    pairs = [Sample(int(n), float(v)) for n, v in zip(Ns, vals)]
    return fit(kind, pairs), pairs
