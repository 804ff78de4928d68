"""Finite-size fit laws: recovery, equivariance, windowing, error paths."""

import warnings

import numpy as np
import pytest
from scipy.optimize import least_squares, minimize_scalar

from twistbethe import baes, scaling
from twistbethe.scaling import (
    FitError,
    FitResult,
    Sample,
    extrapolate,
    fit,
    fit_with_window,
)
from twistbethe.workbench.cli import main

NS = np.array([4, 6, 8, 10, 12, 14, 16, 18], dtype=float)


def _samples(values):
    return [Sample(int(n), float(v)) for n, v in zip(NS, values)]


def test_power_recovery():
    r = fit("power", _samples(3.7 * NS ** -1.8))
    assert r.kind == "power"
    assert r.a == pytest.approx(3.7, abs=1e-10)
    assert r.b == pytest.approx(-1.8, abs=1e-10)
    assert r.c is None
    assert r.rms_residual < 1e-12


def test_power_recovery_negative_branch():
    r = fit("power", _samples(-2.1 * NS ** -0.9746))
    assert r.a == pytest.approx(-2.1, abs=1e-10)
    assert r.b == pytest.approx(-0.9746, abs=1e-10)


# id -> (kind, a, b, c, sizes): both signs of a and b, small and large N;
# "power-large-n" has the shape of the large-N boundary-energy fits
_OFFSET_LAWS = {
    "power-decay": ("power-offset", 1.028, -0.3787, 1.027, NS),
    "power-neg-amp": ("power-offset", -2.3, -1.8, 0.4, NS),
    "power-steep": ("power-offset", 0.7, -4.0, -1.1, NS),
    "power-grow": ("power-offset", 1.3, 0.5, 0.4, NS),
    "power-grow-neg-amp": ("power-offset", -0.6, 2.0, 3.0, NS),
    "power-large-n": ("power-offset", -3.9, -2.0, 1.0274615,
                      np.array([100, 150, 200, 300, 400, 600, 800, 1200, 1600],
                               dtype=float)),
    "exp-decay": ("exp-offset", -0.55, -0.41, 1.0274615, NS),
    "exp-steep": ("exp-offset", 2.1, -2.0, -0.3, NS),
    "exp-grow": ("exp-offset", 1.1, 0.3, 0.2, NS),
    "exp-grow-neg-amp": ("exp-offset", -0.8, 0.5, 1.0, NS),
}


@pytest.mark.parametrize("kind, a, b, c, ns", list(_OFFSET_LAWS.values()),
                         ids=list(_OFFSET_LAWS))
def test_offset_law_recovery(kind, a, b, c, ns):
    x = np.log(ns) if kind.startswith("power") else ns
    r = fit(kind, [(int(n), float(v)) for n, v in zip(ns, a * np.exp(b * x) + c)])
    assert r.a == pytest.approx(a, abs=1e-8)
    assert r.b == pytest.approx(b, abs=1e-8)
    assert r.c == pytest.approx(c, abs=1e-8)
    if b < 0:
        assert extrapolate(r) == r.c


def _large_n_data(eta, ns):
    """E_anti - E_per of the reduced log-BAE ground states: the data of the
    large-N boundary-energy fits."""
    def energy(N, boundary):
        qn = baes.ground_quantum_numbers(N, boundary)
        return baes.energy_hom(baes.solve_log_baes(eta, N, qn))
    ns = np.asarray(ns, dtype=float)
    return ns, np.array([energy(int(N), "anti") - energy(int(N), "per") for N in ns])


def _profile_cases():
    for name, (kind, a, b, c, ns) in _OFFSET_LAWS.items():
        x = np.log(ns) if kind.startswith("power") else ns
        yield name, kind, ns, a * np.exp(b * x) + c
    yield "large-n-eta2", "power-offset", *_large_n_data(
        2.0, (100, 150, 200, 300, 400, 600, 800, 1200, 1600))
    yield "large-n-eta1", "power-offset", *_large_n_data(1.0, (700, 1000, 1300, 1600))


def _unit_abscissa(kind, ns):
    x = scaling._abscissa(kind, ns)
    return (x - x[0]) / (x[-1] - x[0])


def test_grid_profile_matches_scalar_loop():
    """The one-pass profile of the exponent grid against `_project` at each
    grid point: the same best point, and the same RSS up to the rounding of
    a residual vector of a few ulps of the data, u = eps max|v| sqrt(n),
    i.e. |dRSS| <~ u (2 sqrt(RSS) + u).  On noisy data whose profile is flat
    to that rounding the two may pick different points, each one as good
    as rounding can tell: 22 of 3000 random noisy 8-point fits did, all
    within that bound, all at the steep-decay end of the grid."""
    for name, kind, ns, vals in _profile_cases():
        t = _unit_abscissa(kind, ns)
        loop = np.array([scaling._project(beta, t, vals)[0] for beta in scaling._BETA_GRID])
        profile = scaling._profile(t, vals)
        assert np.argmin(profile) == np.argmin(loop), name
        u = np.finfo(float).eps * np.max(np.abs(vals)) * np.sqrt(len(vals))
        assert np.all(np.abs(profile - loop) <= 4 * u * (2 * np.sqrt(loop) + u)), name


def test_grid_profile_at_zero_exponent_is_the_constant_fit():
    # beta = 0 makes the exponential column constant: A = 0, and the RSS is
    # that of the constant fit, with no 0/0
    vals = 1.4 * NS ** -1.1 + 0.2
    i0 = int(np.flatnonzero(scaling._BETA_GRID == 0.0)[0])
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        rss = scaling._profile(_unit_abscissa("power-offset", NS), vals)[i0]
    assert np.isfinite(rss)
    assert rss == pytest.approx(np.sum((vals - vals.mean()) ** 2), rel=1e-14)


@pytest.mark.parametrize("kind, a, b, c, ns", list(_OFFSET_LAWS.values()),
                         ids=list(_OFFSET_LAWS))
def test_offset_fit_projects_only_for_the_refinement(monkeypatch, kind, a, b, c, ns):
    # the grid makes no _project call: what is left is the bounded Brent
    # refinement and the final (A, c), at most 11 calls on these laws
    calls = []
    project = scaling._project
    monkeypatch.setattr(scaling, "_project", lambda *args: calls.append(args) or project(*args))
    x = np.log(ns) if kind.startswith("power") else ns
    fit(kind, [(int(n), float(v)) for n, v in zip(ns, a * np.exp(b * x) + c)])
    assert 0 < len(calls) <= 11


def _oracle_cases():
    for name, (kind, a, b, c, ns) in _OFFSET_LAWS.items():
        x = np.log(ns) if kind.startswith("power") else ns
        yield name, kind, ns, a * np.exp(b * x) + c
    rng = np.random.default_rng(5)
    yield "noise-1e-9", "power-offset", NS, (1.4 * NS ** -1.1 + 0.2
                                             + 1e-9 * rng.standard_normal(NS.size))


_ORACLE = list(_oracle_cases())


@pytest.mark.parametrize("name, kind, ns, vals", _ORACLE, ids=[c[0] for c in _ORACLE])
def test_bounded_brent_matches_scipy(name, kind, ns, vals):
    # a port of scipy's bounded minimize_scalar, step for step: the same
    # exponent to the bit (also measured on 3000 random noisy laws)
    t = _unit_abscissa(kind, ns)
    i = int(np.argmin(scaling._profile(t, vals)))
    lo = scaling._BETA_GRID[max(i - 1, 0)]
    hi = scaling._BETA_GRID[min(i + 1, scaling._BETA_GRID.size - 1)]
    rss = lambda beta: scaling._project(beta, t, vals)[0]
    direct = minimize_scalar(rss, bounds=(lo, hi), method="bounded", options={"xatol": 1e-10})
    assert scaling._bounded_brent(rss, lo, hi, xatol=1e-10) == direct.x


@pytest.mark.parametrize("name, kind, ns, vals", _ORACLE, ids=[c[0] for c in _ORACLE])
def test_levenberg_marquardt_matches_scipy(monkeypatch, name, kind, ns, vals):
    # The offset fit with its polish run by scipy's MINPACK LM instead, from
    # the same start: with the same analytic Jacobian the parameters were
    # bit-identical on every case here (bound 1e-14); with scipy's
    # finite-difference Jacobian, as the fit had it before, they differed by
    # at most 6.6e-13 (exp-steep; bound 1e-11)
    samples = [(int(n), float(v)) for n, v in zip(ns, vals)]
    ours = fit(kind, samples)
    for jac_of, bound in ((lambda jac: jac, 1e-14), (lambda jac: "2-point", 1e-11)):
        def scipy_lm(fun, jac, x0, **tols):
            return least_squares(fun, x0=x0, jac=jac_of(jac), method="lm", **tols)

        monkeypatch.setattr(scaling, "least_squares", scipy_lm)
        direct = fit(kind, samples)
        for got, want in zip((ours.a, ours.b, ours.c), (direct.a, direct.b, direct.c)):
            assert abs(got - want) <= bound


def test_exp_recovery():
    a, b = 4.2, -0.33
    r = fit("exp", _samples(a * np.exp(b * NS)))
    assert r.a == pytest.approx(a, abs=1e-8)
    assert r.b == pytest.approx(b, abs=1e-8)
    assert extrapolate(r) == 0.0


def test_kind_spelling_variants():
    # one spelling per kind, in any letter case
    vals = _samples(2.0 * NS ** -1.0 + 0.3)
    for kind in ("power-offset", "Power-Offset"):
        assert fit(kind, vals).kind == "power-offset"
    for kind in ("cubic", "power_offset", "PowerOffset", "power offset"):
        with pytest.raises(ValueError):
            fit(kind, vals)


def test_scale_equivariance():
    vals = 3.7 * NS ** -1.8
    r1 = fit("power", _samples(vals))
    r2 = fit("power", _samples(137.0 * vals))
    assert r2.a == pytest.approx(137.0 * r1.a, rel=1e-10)
    assert r2.b == pytest.approx(r1.b, abs=1e-10)


def test_matches_direct_nonlinear_solver():
    # same law fitted by an unrelated parameterization must agree
    rng = np.random.default_rng(5)
    vals = 1.4 * NS ** -1.1 + 0.2 + 1e-9 * rng.standard_normal(NS.size)
    r = fit("power-offset", _samples(vals))

    def resid(p):
        return p[0] * NS ** p[1] + p[2] - vals

    direct = least_squares(resid, [1.0, -1.0, 0.0], xtol=1e-15, ftol=1e-15)
    assert r.a == pytest.approx(direct.x[0], abs=1e-7)
    assert r.b == pytest.approx(direct.x[1], abs=1e-7)
    assert r.c == pytest.approx(direct.x[2], abs=1e-7)


def test_local_minimum():
    # perturbing the returned parameters must not reduce the rms residual
    rng = np.random.default_rng(9)
    vals = 0.9 * NS ** -0.7 + 0.05 + 1e-4 * rng.standard_normal(NS.size)
    r = fit("power-offset", _samples(vals))

    def rms(a, b, c):
        return float(np.sqrt(np.mean((a * NS ** b + c - vals) ** 2)))

    base = rms(r.a, r.b, r.c)
    assert base == pytest.approx(r.rms_residual, rel=1e-8)
    for da, db, dc in ((1e-6, 0, 0), (0, 1e-6, 0), (0, 0, 1e-6),
                       (-1e-6, 0, 0), (0, -1e-6, 0), (0, 0, -1e-6)):
        assert rms(r.a + da, r.b + db, r.c + dc) >= base * (1 - 1e-9)


def test_predict_vectorized():
    r = fit("power", _samples(3.7 * NS ** -1.8))
    out = r.predict(NS)
    assert out.shape == NS.shape
    np.testing.assert_allclose(out, 3.7 * NS ** -1.8, rtol=1e-10)


def test_constant_data_has_no_limit():
    r = fit("power", _samples(np.full(NS.size, 1.0)))
    assert r.b == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        extrapolate(r)


def test_growing_law_rejected_for_extrapolation():
    r = fit("power", _samples(2.0 * NS ** 0.5))
    assert r.b > 0
    with pytest.raises(ValueError):
        extrapolate(r)


def test_sign_mixed_rejected():
    with pytest.raises((ValueError, FitError)):
        fit("power", [Sample(4, 1.0), Sample(6, -1.0), Sample(8, 0.5),
                      Sample(10, 0.2)])


def test_too_few_points():
    with pytest.raises(ValueError):
        fit("power", [Sample(4, 1.0), Sample(6, 0.5)])
    with pytest.raises(ValueError):
        fit("power-offset", [Sample(4, 1.0), Sample(6, 0.5), Sample(8, 0.3)])
    # points at repeated sizes do not determine a law
    with pytest.raises(ValueError):
        fit("power", [(4, 1.0), (4, 2.0), (4, 3.0)])
    with pytest.raises(ValueError):
        fit("power-offset", [(4, 1.0), (4, 2.0), (6, 0.5), (6, 0.4)])
    with pytest.raises(ValueError):
        fit("exp-offset", [(4, 1.0), (4, 2.0), (4, 0.5), (4, 0.4)])


# noisy exp-offset data at N = 4..18:2 on which the polish runs to a steep
# exponent: on the first the amplitude at N = 0 overflows a float, on the
# second the fit ends at a = -0, b = 244 with a nan rms
_STEEP_OFFSET_DATA = {
    "overflow": ["-0x1.4581e1ee56f6ep-1", "-0x1.5fbbc24c54c6dp-1", "-0x1.53b1591370bfdp-1",
                 "-0x1.5522140fa5b05p-1", "-0x1.58c0fc458650bp-1", "-0x1.5adda05e09c40p-1",
                 "-0x1.5948b28fe7d46p-1", "-0x1.582496500c8d2p-1"],
    "not-finite": ["0x1.4353590317c0bp-2", "0x1.3cbfe7f73ae20p-2", "0x1.3b1ef6fd3df10p-2",
                   "0x1.3bbc38ce57cccp-2", "0x1.29185abd0b8a8p-2", "0x1.374c701011e6cp-2",
                   "0x1.43bd01ef9e77dp-2", "0x1.2c59020d14e49p-2"],
}


@pytest.mark.parametrize("case", sorted(_STEEP_OFFSET_DATA))
def test_steep_offset_fit_raises_fit_error(tmp_path, capsys, case):
    samples = list(zip(NS.astype(int).tolist(), map(float.fromhex, _STEEP_OFFSET_DATA[case])))
    with pytest.raises(FitError) as err:
        fit("exp-offset", samples)
    assert len(err.value.iterate) == 3
    path = tmp_path / "data.csv"
    path.write_text("N,value\n" + "".join(f"{n},{v!r}\n" for n, v in samples))
    assert main(["fit", "--kind", "exp-offset", "--input", str(path), "--y", "value"]) == 1
    assert capsys.readouterr().err.startswith("fit failed: ")


def test_window_drops_a_size_whose_rest_admits_no_finite_fit():
    # the first deleted-residual test fits N = 6..18, where the polish ends
    # at a = 0, b = 439 with a nan rms; the window drops N = 4 and goes on
    # to a finite law
    vals = ["-0x1.5beddb68bcc4bp-3", "-0x1.3681127f2a395p-3", "-0x1.263f6e0353caap-3",
            "-0x1.2c3038e8909d6p-3", "-0x1.47bb8251c6547p-3", "-0x1.3d29dee9cfec2p-3",
            "-0x1.3a59ad75decb3p-3", "-0x1.28f68bfc5a667p-3"]
    samples = list(zip(NS.astype(int).tolist(), map(float.fromhex, vals)))
    with pytest.raises(FitError):
        fit("exp-offset", samples[1:])
    r, used = fit_with_window("exp-offset", samples)
    assert [s.N for s in used] == [8, 10, 12, 14, 16, 18]
    assert r.c == pytest.approx(float.fromhex("-0x1.389c7905992cfp-3"), abs=1e-12)


def test_sample_validation():
    with pytest.raises(ValueError):
        Sample(1, 0.5)
    with pytest.raises(ValueError):
        Sample(4, float("nan"))


def test_window_drops_small_n_outlier():
    a, b, c = 1.0, -1.5, 0.5
    vals = a * NS ** b + c
    vals[0] += 0.2
    r, used = fit_with_window("power-offset", _samples(vals))
    assert len(used) == NS.size - 1
    assert min(s.N for s in used) == 6
    assert r.c == pytest.approx(c, abs=1e-8)


def test_window_keeps_clean_data():
    vals = 1.0 * NS ** -1.5 + 0.5
    r, used = fit_with_window("power-offset", _samples(vals))
    assert len(used) == NS.size
    assert r.c == pytest.approx(0.5, abs=1e-8)


def test_fit_result_predict_without_offset_kind_mismatch():
    r = FitResult(kind="exp", a=2.0, b=-0.5, c=None,
                  rms_residual=0.0, n_points=5)
    assert r.predict(4.0) == pytest.approx(2.0 * np.exp(-2.0))
