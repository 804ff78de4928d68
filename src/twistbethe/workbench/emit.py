"""Record emission: CSV and JSON tables, native SVG scatter plots.

CSV is UTF-8, comma separated, decimal point, header row naming the
flattened record fields; floats carry 17 significant digits so values
round-trip exactly.  JSON holds the full record structure as an array.
SVG plots are generated directly (no plotting package): log-log axes for
power-law data, semi-log for exponential decays, with an optional fitted
curve sampled at 200 abscissae.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from ..scaling import FitResult
from .runner import flatten_record

__all__ = ["emit", "parse_csv", "render_svg"]


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _check_schema(records, flats: list[dict]) -> list[str]:
    """Shared column order; failed points may lack output columns."""
    experiments = {r.experiment for r in records}
    if len(experiments) > 1:
        raise ValueError("records have mixed schemas; emit them separately")
    header = []
    for flat in flats:
        for key in flat:
            if key not in header:
                header.append(key)
    return header


def emit(records, fmt, output_dir=".", basename: str | None = None, *,
         x_field: str = "N", y_field: str | None = None,
         fit_result: FitResult | None = None) -> list[Path]:
    """Write records in the requested format; returns the files written.

    ``fmt`` is one of ``CSV``, ``JSON``, ``SVG`` (case-insensitive).  SVG
    needs ``x_field``/``y_field`` naming numeric columns.
    """
    records = list(records)
    if not records:
        raise ValueError("no records to emit")
    fmt_key = str(fmt).strip().lower()
    flats = [flatten_record(r) for r in records]
    header = _check_schema(records, flats)

    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    base = basename or records[0].experiment.lower()

    if fmt_key == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, delimiter=",", lineterminator="\n")
        writer.writerow(header)
        for flat in flats:
            writer.writerow([_format_cell(flat.get(k)) for k in header])
        path = out / f"{base}.csv"
        path.write_text(buf.getvalue(), encoding="utf-8")
        return [path]

    if fmt_key == "json":
        payload = [r.to_dict() for r in records]
        path = out / f"{base}.json"
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        return [path]

    if fmt_key == "svg":
        if y_field is None:
            raise ValueError("SVG needs y_field, the column to plot")
        path = out / f"{base}.svg"
        path.write_text(
            render_svg(flats, x_field, y_field, fit_result=fit_result,
                       title=f"{records[0].experiment}: {y_field} vs {x_field}"),
            encoding="utf-8")
        return [path]

    raise ValueError(f"unknown emit format: {fmt!r}; expected CSV, JSON or SVG")


def parse_csv(path) -> list[dict]:
    """Read an emitted CSV back into flat dicts with numbers restored."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for raw in csv.DictReader(fh):
            row = {}
            for key, cell in raw.items():
                row[key] = _parse_cell(cell)
            rows.append(row)
    return rows


def _parse_cell(cell: str):
    if cell == "" or cell is None:
        return ""
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


# ---------------------------------------------------------------------------
# native SVG scatter plot


_W, _H = 640.0, 440.0
_ML, _MR, _MT, _MB = 78.0, 22.0, 34.0, 56.0


def _axis_ticks(lo: float, hi: float, log: bool):
    if log:
        d0, d1 = math.floor(math.log10(lo)), math.ceil(math.log10(hi))
        ticks = [10.0 ** d for d in range(d0, d1 + 1)]
        if d1 - d0 <= 1:
            extra = [m * 10.0 ** d for d in range(d0, d1 + 1) for m in (2, 5)]
            ticks = sorted(t for t in set(ticks + extra) if lo / 1.5 <= t <= hi * 1.5)
        return ticks
    span = hi - lo or 1.0
    step = 10.0 ** math.floor(math.log10(span / 4))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= 6:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        ticks.append(round(t, 12))
        t += step
    return ticks


def _fmt_tick(v: float) -> str:
    return f"{v:g}"


def render_svg(flats: list[dict], x_field: str, y_field: str, *,
               fit_result: FitResult | None = None,
               title: str = "") -> str:
    """Scatter plot of |y| vs x with an optional fitted curve.

    Axis scales follow the law being shown: both logarithmic for power
    laws, logarithmic y with linear x for exponential ones; without a fit
    the y axis is logarithmic and x stays linear unless the data spans a
    decade.  Negative y values are plotted by magnitude.
    """
    pts = [(float(f[x_field]), float(f[y_field])) for f in flats
           if f.get("status", "ok") in ("ok", "") and f.get(y_field, "") != ""]
    if not pts:
        raise ValueError("no plottable points")
    xs = np.array([p[0] for p in pts])
    ys = np.abs(np.array([p[1] for p in pts]))
    ys = np.where(ys == 0, 1e-300, ys)

    if fit_result is not None:
        x_log = fit_result.kind.startswith("power")
    else:
        x_log = xs.min() > 0 and xs.max() / xs.min() >= 10.0

    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_lo == x_hi:
        x_lo, x_hi = x_lo * 0.9 or -1.0, x_hi * 1.1 or 1.0
    if y_lo == y_hi:
        y_lo, y_hi = y_lo * 0.5, y_hi * 2.0

    pad = 0.06

    def x_map(v: float) -> float:
        if x_log:
            a, b = math.log10(x_lo), math.log10(x_hi)
            f = (math.log10(v) - a) / (b - a) if b > a else 0.5
        else:
            f = (v - x_lo) / (x_hi - x_lo)
        f = pad + (1 - 2 * pad) * f
        return _ML + f * (_W - _ML - _MR)

    def y_map(v: float) -> float:
        a, b = math.log10(y_lo), math.log10(y_hi)
        f = (math.log10(v) - a) / (b - a) if b > a else 0.5
        f = pad + (1 - 2 * pad) * f
        return _H - _MB - f * (_H - _MB - _MT)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W:g}" height="{_H:g}" '
        f'viewBox="0 0 {_W:g} {_H:g}">',
        f'<rect width="{_W:g}" height="{_H:g}" fill="white"/>',
        f'<rect x="{_ML:g}" y="{_MT:g}" width="{_W - _ML - _MR:g}" '
        f'height="{_H - _MT - _MB:g}" fill="none" stroke="#444" stroke-width="1"/>',
    ]
    font = 'font-family="sans-serif" font-size="12"'

    for t in _axis_ticks(x_lo, x_hi, x_log):
        if not (x_lo <= t <= x_hi) and x_log:
            continue
        X = x_map(t)
        parts.append(f'<line x1="{X:.2f}" y1="{_MT:.2f}" x2="{X:.2f}" '
                     f'y2="{_H - _MB:.2f}" stroke="#ddd" stroke-width="0.7"/>')
        parts.append(f'<text x="{X:.2f}" y="{_H - _MB + 16:.2f}" {font} '
                     f'text-anchor="middle">{_fmt_tick(t)}</text>')
    for t in _axis_ticks(y_lo, y_hi, True):
        if not (y_lo / 1.0000001 <= t <= y_hi * 1.0000001):
            continue
        Y = y_map(t)
        parts.append(f'<line x1="{_ML:.2f}" y1="{Y:.2f}" x2="{_W - _MR:.2f}" '
                     f'y2="{Y:.2f}" stroke="#ddd" stroke-width="0.7"/>')
        parts.append(f'<text x="{_ML - 6:.2f}" y="{Y + 4:.2f}" {font} '
                     f'text-anchor="end">{_fmt_tick(t)}</text>')

    if fit_result is not None:
        if x_log:
            grid = np.logspace(math.log10(x_lo), math.log10(x_hi), 200)
        else:
            grid = np.linspace(x_lo, x_hi, 200)
        curve = np.abs(np.asarray(fit_result.predict(grid), dtype=float))
        coords = [(x_map(float(gx)), y_map(float(max(gy, 1e-300))))
                  for gx, gy in zip(grid, curve)
                  if y_lo / 50 <= gy <= y_hi * 50]
        if coords:
            d = "M" + " L".join(f"{X:.2f},{Y:.2f}" for X, Y in coords)
            parts.append(f'<path d="{d}" fill="none" stroke="#d9621e" '
                         f'stroke-width="1.6"/>')
        label = f"fit: a={fit_result.a:.4g}, b={fit_result.b:.4g}"
        if fit_result.c is not None:
            label += f", c={fit_result.c:.4g}"
        parts.append(f'<text x="{_W - _MR - 6:.2f}" y="{_MT + 16:.2f}" {font} '
                     f'text-anchor="end" fill="#d9621e">{label}</text>')

    for X, Yv in pts:
        parts.append(f'<circle cx="{x_map(X):.2f}" '
                     f'cy="{y_map(max(abs(Yv), 1e-300)):.2f}" r="3.5" '
                     f'fill="#31708f"/>')

    parts.append(f'<text x="{(_ML + _W - _MR) / 2:.2f}" y="{_H - 14:.2f}" {font} '
                 f'text-anchor="middle">{x_field}{" (log)" if x_log else ""}</text>')
    parts.append(f'<text x="18" y="{(_MT + _H - _MB) / 2:.2f}" {font} '
                 f'text-anchor="middle" '
                 f'transform="rotate(-90 18 {(_MT + _H - _MB) / 2:.2f})">'
                 f'|{y_field}| (log)</text>')
    if title:
        parts.append(f'<text x="{(_ML + _W - _MR) / 2:.2f}" y="20" {font} '
                     f'text-anchor="middle" font-weight="bold">{title}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
