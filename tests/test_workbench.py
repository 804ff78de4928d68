"""Workbench plumbing: config, cache, emitters, CLI, self checks."""

import cmath
import dataclasses
import json
import math
import time

import numpy as np
import pytest

from twistbethe import baes, model, thermo
from twistbethe.workbench import runner
from twistbethe.workbench.config import EXPERIMENTS, ConfigError, ExperimentConfig
from twistbethe.workbench.emit import emit, parse_csv
from twistbethe.workbench.runner import ResultRecord, flatten_record, run
from twistbethe.workbench.cli import main
from twistbethe.workbench.verify import (
    check_charges,
    check_einh_signs,
    check_exact_vs_band_edge,
    check_hom_vs_ed,
    check_inhom_vs_ed,
    check_large_n_consistency,
    check_operator_identities,
    check_parity_reversal,
    check_thermo_series,
)


def _cfg(tmp_path, **kw):
    base = dict(experiment="EdSpectrum", eta=2.0, N_list=[4, 5], boundary="anti",
                output_dir=str(tmp_path))
    base.update(kw)
    return ExperimentConfig(**base)


def test_experiment_names_canonical():
    assert "EdSpectrum" in EXPERIMENTS
    grid = dict(eta=2.0, N_list=[4], boundary="anti")
    cfg = ExperimentConfig(experiment="edspectrum", **grid)   # the CLI's lowercase name
    assert cfg.experiment == "EdSpectrum"
    for alias in ("ed-spectrum", "ed_spectrum", "gap-scan"):   # one spelling per name
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment=alias, **grid)


def test_config_rejects_bad_input(tmp_path):
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="nonsense", eta=2.0, N_list=[4])
    for eta in (-1.0, math.inf, math.nan, [2.0, math.inf]):
        with pytest.raises(ConfigError):
            _cfg(tmp_path, eta=eta)
    with pytest.raises(ConfigError):
        _cfg(tmp_path, N_list=[])
    with pytest.raises(ConfigError):
        _cfg(tmp_path, N_list=[8, 4])
    with pytest.raises(ConfigError):
        _cfg(tmp_path, N_list=[1, 4])
    with pytest.raises(ConfigError):
        _cfg(tmp_path, boundary="moebius")
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="Fit", eta=2.0, N_list=[4])  # fits run via `twistbethe fit`
    # the solver and series numerics are fixed; a config cannot set them
    for key in ("solver", "series"):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"experiment": "GapScan", key: {}})


def test_from_dict_overrides(tmp_path):
    cfg = ExperimentConfig.from_dict(
        {"experiment": "GapScan", "eta": 1.0, "N_list": [4], "boundary": "anti"},
        {"eta": [2.0, 3.0], "output_dir": str(tmp_path), "N_list": None})
    assert cfg.eta == (2.0, 3.0)
    assert cfg.N_list == (4,)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "GapScan", "bogus": 1})


def test_run_caches_and_is_deterministic(tmp_path):
    cfg = _cfg(tmp_path)
    first = run(cfg)
    assert [r.status for r in first] == ["ok", "ok"]
    cache_files = sorted((tmp_path / "cache").glob("*.json"))
    assert len(cache_files) == 2
    blobs = [p.read_bytes() for p in cache_files]

    again = run(_cfg(tmp_path))
    assert [r.to_dict() for r in again] == [r.to_dict() for r in first]
    assert [p.read_bytes() for p in cache_files] == blobs  # untouched bytes

    forced = run(_cfg(tmp_path), force=True)
    for a, b in zip(forced, first):
        assert a.outputs == pytest.approx(b.outputs, abs=1e-14)


def test_point_key_tracks_sources(tmp_path, monkeypatch):
    # a cached point is served only to the code that computed it
    cfg = _cfg(tmp_path)
    params = {"eta": 2.0, "N": 4}
    key = runner._point_key(cfg.experiment, params)
    assert runner._point_key(cfg.experiment, params) == key
    monkeypatch.setattr(runner, "_source_digest", lambda: "0" * 64)
    assert runner._point_key(cfg.experiment, params) != key


def test_point_key_format_is_pinned(monkeypatch):
    # the key names cache files on disk, so for fixed sources it must not
    # drift between versions of the runner
    monkeypatch.setattr(runner, "_source_digest", lambda: "0" * 64)
    params = {"eta": 2.0, "N": 4, "boundary": "antiperiodic", "seed": 0}
    assert runner._point_key("EdSpectrum", params) == "6ac696a1e384ab0e2353"
    assert runner._point_key("Thermo", {"eta": 0.1}) == "6501fe0c59b57cc766ac"
    params = {"eta": 2.0, "N": 4, "boundary": "antiperiodic"}
    assert runner._point_key("EdSpectrum", params) == "51e9aace1d80383486dd"


# the inputs each experiment reads: the parameters of its body
EXPERIMENT_INPUTS = {
    "EdSpectrum": ["eta", "N", "boundary"],
    "GapScan": ["eta", "N", "boundary"],
    "SolveHom": ["eta", "N", "boundary"],
    "SolveInhom": ["eta", "N"],
    "EinhScan": ["eta", "N"],
    "BoundaryEnergyScan": ["eta", "N"],
    "ChargeScan": ["eta", "N"],
    "Thermo": ["eta"],
}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_record_params_are_the_inputs_the_body_reads(tmp_path, experiment):
    assert list(runner.inputs(experiment)) == EXPERIMENT_INPUTS[experiment]
    records = run(_cfg(tmp_path, experiment=experiment, eta=[2.0, 3.0], N_list=[4]))
    assert [r.status for r in records] == ["ok", "ok"]
    for record, eta in zip(records, (2.0, 3.0)):
        assert list(record.params) == EXPERIMENT_INPUTS[experiment]
        assert record.params["eta"] == eta
    assert len(list((tmp_path / "cache").glob("*.json"))) == 2


def test_unread_inputs_are_refused(tmp_path, capsys):
    out = str(tmp_path)
    for argv in (["EinhScan", "--boundary", "per", "--n", "4"],
                 ["Thermo", "--n", "4"],
                 ["SolveHom", "--seed", "1", "--n", "4"],
                 ["EinhScan", "--seed", "1", "--n", "4"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", out])
        assert exc.value.code == 2
    cfile = tmp_path / "cfg.json"
    cfile.write_text(json.dumps({"experiment": "EinhScan", "eta": 2.0, "N_list": [4],
                                 "boundary": "periodic"}))
    assert main(["EinhScan", "--config", str(cfile), "--out", out]) == 2
    assert "EinhScan reads no config keys ['boundary']" in capsys.readouterr().err
    # iterative ED starts from a fixed vector: no experiment reads a seed
    cfile.write_text(json.dumps({"experiment": "EinhScan", "eta": 2.0, "N_list": [4],
                                 "seed": 1}))
    assert main(["EinhScan", "--config", str(cfile), "--out", out]) == 2
    assert "EinhScan reads no config keys ['seed']" in capsys.readouterr().err
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "Thermo", "N_list": [4]})
    assert not (tmp_path / "cache").exists()   # nothing ran


def test_read_inputs_have_no_defaults(tmp_path, capsys):
    # every input an experiment reads must be given, on the command line or
    # in a config file: no sweep runs on a default grid
    out = tmp_path / "out"
    for argv, missing in ((["EinhScan"], "eta and N_list"),
                          (["EinhScan", "--eta", "2"], "N_list"),
                          (["GapScan", "--eta", "2", "--n", "4"], "boundary"),
                          (["Thermo"], "eta")):
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"bad config: {argv[0]} needs {missing}\n"
    assert not out.exists()
    with pytest.raises(ConfigError, match="SolveHom needs boundary"):
        ExperimentConfig.from_dict({"experiment": "SolveHom", "eta": 2.0, "N_list": [4]})
    # a field the experiment does not read may be left out, or given and checked
    assert ExperimentConfig("Thermo", eta=2.0).N_list is None
    assert ExperimentConfig("EinhScan", eta=2.0, N_list=[4], boundary="per").boundary.value \
        == "periodic"
    with pytest.raises(ConfigError):
        ExperimentConfig("EinhScan", eta=2.0, N_list=[4], boundary="moebius")


def test_corrupt_cache_recomputed(tmp_path):
    cfg = _cfg(tmp_path, N_list=[4])
    run(cfg)
    path = next((tmp_path / "cache").glob("*.json"))
    # not JSON, JSON of another shape, a record with a field missing
    for text in ("{ not json", "[]", '{"experiment": "EdSpectrum"}'):
        path.write_text(text)
        rec = run(_cfg(tmp_path, N_list=[4]))[0]
        assert rec.status == "ok"
        assert json.loads(path.read_text())["outputs"] == rec.outputs


@pytest.mark.parametrize("field, value", [
    ("outputs", [1, 2]), ("params", "N=4"), ("status", "done"), ("status", 1),
    ("error", 3), ("experiment", None), ("timestamp", 0), ("version", [0, 1]),
])
def test_mistyped_cache_entry_recomputed(tmp_path, field, value):
    # a record with every field present but one of the wrong type is a miss
    run(_cfg(tmp_path, N_list=[4]))
    path = next((tmp_path / "cache").glob("*.json"))
    good = json.loads(path.read_text())
    path.write_text(json.dumps({**good, field: value}))
    rec = run(_cfg(tmp_path, N_list=[4]))[0]
    assert rec.status == "ok" and rec.outputs == good["outputs"]
    assert rec.timestamp != good["timestamp"]          # recomputed, not served
    assert json.loads(path.read_text())["outputs"] == good["outputs"]
    emit([rec], "csv", str(tmp_path))


def test_solve_hom_records_mode_count(tmp_path):
    # 0 on the pairwise path (small M), the Fourier-mode count K above it
    records = run(_cfg(tmp_path, experiment="SolveHom", N_list=[8, 400]))
    small, large = (r.outputs for r in records)
    assert small["modes"] == 0
    assert large["modes"] == 9
    assert small["iterations"] >= 1 and large["residual"] < 1e-9


def test_solve_inhom_record_reports_root_sum(tmp_path):
    # the sum of the roots, which enters the inhomogeneous term
    record = run(_cfg(tmp_path, experiment="SolveInhom", N_list=[4]))[0]
    roots = baes.solve_inhom_baes(model.ModelParams(4, 2.0, "anti"))
    assert complex(record.outputs["root_sum_re"], record.outputs["root_sum_im"]) \
        == complex(np.sum(roots.lam))


def test_point_error_does_not_abort_sweep(tmp_path):
    cfg = _cfg(tmp_path, experiment="EinhScan", N_list=[4, 22])
    records = run(cfg)
    assert records[0].status == "ok"
    assert records[1].status == "error"
    assert records[1].error  # message retained
    assert records[1].outputs == {}


@pytest.mark.parametrize("experiment",
                         ["EdSpectrum", "GapScan", "BoundaryEnergyScan", "ChargeScan"])
def test_ed_point_past_the_limit_fails_fast(tmp_path, experiment):
    # H and H2 are refused above model.ITERATIVE_MAX before a block of
    # 2^(N-1) states is built
    N = model.ITERATIVE_MAX + 2
    t0 = time.perf_counter()
    records = run(_cfg(tmp_path, experiment=experiment, N_list=[N]))
    assert time.perf_counter() - t0 < 1.0
    assert records[0].status == "error"
    assert "exceeds the ED limit" in records[0].error


def test_emit_csv_json_roundtrip(tmp_path):
    cfg = _cfg(tmp_path, N_list=[4])
    records = run(cfg)
    paths = emit(records, "csv", str(tmp_path)) + emit(records, "json", str(tmp_path))
    csv_path = next(p for p in paths if p.suffix == ".csv")
    json_path = next(p for p in paths if p.suffix == ".json")

    rows = parse_csv(csv_path)
    assert rows == [flatten_record(r) for r in records]

    data = json.loads(json_path.read_text())
    assert [ResultRecord.from_dict(d).to_dict() for d in data] == \
        [r.to_dict() for r in records]


def test_emit_rejects_mixed_schema(tmp_path):
    a = run(_cfg(tmp_path, N_list=[4]))
    b = run(_cfg(tmp_path, experiment="GapScan", N_list=[4]))
    with pytest.raises(ValueError):
        emit(a + b, "csv", str(tmp_path))
    with pytest.raises(ValueError):
        emit(a, "yaml", str(tmp_path))
    with pytest.raises(ValueError, match="y_field"):   # SVG names the column it plots
        emit(a, "svg", str(tmp_path))


def test_emit_svg_structure(tmp_path):
    cfg = _cfg(tmp_path, experiment="EinhScan", N_list=[8, 10, 12])
    records = run(cfg)
    from twistbethe.scaling import Sample, fit
    fr = fit("power", [Sample(r.params["N"], r.outputs["e_inh"])
                       for r in records])
    paths = emit(records, "svg", str(tmp_path), x_field="N",
                 y_field="e_inh", fit_result=fr)
    text = paths[0].read_text()
    assert text.startswith("<svg")
    assert text.count("<circle") == 3
    path_attr = next(s for s in text.split('"') if s.startswith("M"))
    assert path_attr.count(" L") >= 150  # dense fit curve
    assert "e_inh" in text


def test_cli_experiment_exit_codes(tmp_path, capsys):
    out = str(tmp_path / "run1")
    code = main(["EdSpectrum", "--eta", "2", "--n", "4,5", "--boundary", "anti",
                 "--out", out, "--formats", "csv,json"])
    assert code == 0
    text = capsys.readouterr().out
    assert text.count("ok    ") == 2
    assert text.count("wrote ") == 2

    # one failing point in the sweep -> exit 1, other points still reported
    code = main(["einhscan", "--eta", "2", "--n", "4,22",
                 "--out", str(tmp_path / "run2"), "--formats", "csv"])
    assert code == 1
    assert "error" in capsys.readouterr().out

    # malformed N list -> config error
    assert main(["EdSpectrum", "--eta", "2", "--n", "4,x", "--boundary", "anti",
                 "--out", out]) == 2
    capsys.readouterr()


def test_cli_range_syntax(tmp_path, capsys):
    out = str(tmp_path)
    code = main(["EdSpectrum", "--eta", "2", "--n", "4..8:2", "--boundary", "anti",
                 "--out", out, "--formats", "json"])
    assert code == 0
    rows = json.loads(next((tmp_path).glob("*.json")).read_text())
    assert [r["params"]["N"] for r in rows] == [4, 6, 8]
    capsys.readouterr()


def test_cli_config_file_with_flag_overrides(tmp_path, capsys):
    cfile = tmp_path / "cfg.json"
    cfile.write_text(json.dumps({
        "experiment": "EdSpectrum", "eta": 1.0, "N_list": [4], "boundary": "anti",
        "output_dir": str(tmp_path / "a")}))
    code = main(["EdSpectrum", "--config", str(cfile), "--eta", "2",
                 "--out", str(tmp_path / "b"), "--formats", "csv"])
    assert code == 0
    rows = parse_csv(next((tmp_path / "b").glob("*.csv")))
    assert rows[0]["eta"] == 2.0
    capsys.readouterr()


def test_cli_fit_subcommand(tmp_path, capsys):
    import csv as _csv
    path = tmp_path / "data.csv"
    with open(path, "w", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(["N", "value", "status"])
        for n in (4, 6, 8, 10, 12):
            w.writerow([n, 3.0 * n ** -1.5, "ok"])
        w.writerow([14, "", "error"])  # skipped row
    code = main(["fit", "--kind", "power", "--input", str(path),
                 "--y", "value"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["a"] == pytest.approx(3.0, abs=1e-8)
    assert payload["b"] == pytest.approx(-1.5, abs=1e-8)
    assert payload["n_points"] == 5

    # the window drops an outlier at the smallest size and recovers the offset
    with open(path, "w", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(["N", "value", "status"])
        for n in (4, 6, 8, 10, 12, 14, 16, 18):
            w.writerow([n, 1.0 * n ** -1.5 + 0.5 + (0.2 if n == 4 else 0.0), "ok"])
    argv = ["fit", "--kind", "power-offset", "--input", str(path), "--y", "value"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["n_points"] == 8
    assert main(argv + ["--window"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_points"] == 7
    assert payload["asymptote"] == pytest.approx(0.5, abs=1e-8)

    assert main(["fit", "--kind", "power", "--input",
                 str(tmp_path / "missing.csv"), "--y", "value"]) == 2
    capsys.readouterr()
    # a directory, a file that is not UTF-8 and a text column are bad input
    # too (exit 2), not a traceback
    assert main(["fit", "--kind", "power", "--input", str(tmp_path), "--y", "value"]) == 2
    assert capsys.readouterr().err.startswith("cannot read input")
    out = str(tmp_path / "out")
    assert main(["EdSpectrum", "--eta", "2", "--n", "4,5", "--boundary", "anti",
                 "--out", out, "--formats", "csv"]) == 0
    capsys.readouterr()
    assert main(["fit", "--kind", "power", "--input", f"{out}/edspectrum.csv",
                 "--y", "method"]) == 2
    assert capsys.readouterr().err == "column 'method' is not numeric: 'dense'\n"
    bad = tmp_path / "bad.csv"
    for text, message in ((b"N,v\n4,\xff\n", "cannot read input"),
                          (b"N,v\nx,1\ny,2\n", "column 'N' is not numeric")):
        bad.write_bytes(text)
        assert main(["fit", "--kind", "power", "--input", str(bad), "--y", "v"]) == 2
        assert capsys.readouterr().err.startswith(message)
    with pytest.raises(SystemExit):   # one spelling per subcommand
        main(["Fit", "--kind", "power", "--input", str(path), "--y", "value"])
    capsys.readouterr()


@pytest.mark.parametrize("eta", ["inf", "nan", "2,inf"])
def test_cli_refuses_non_finite_eta(tmp_path, capsys, eta):
    out = tmp_path / "out"
    for name in ("Thermo", "EdSpectrum"):
        assert main([name, "--eta", eta, "--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_cli_spellings_parse_through_the_library(tmp_path, capsys):
    # --boundary and fit --kind accept what Boundary.coerce and the fit
    # kinds accept, in any letter case; anything else is a usage error
    out = str(tmp_path / "gap")
    assert main(["GapScan", "--eta", "2", "--boundary", "Anti", "--n", "4", "--out", out,
                 "--formats", "csv"]) == 0
    assert parse_csv(next((tmp_path / "gap").glob("*.csv")))[0]["boundary"] == "antiperiodic"
    for argv in (["GapScan", "--boundary", "twisted", "--n", "4", "--out", out],
                 ["fit", "--kind", "power_offset", "--input", "x.csv", "--y", "v"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()
    path = tmp_path / "data.csv"
    path.write_text("N,value\n" + "".join(f"{n},{2.0 * n ** -1.0}\n" for n in (4, 6, 8)))
    assert main(["fit", "--kind", "POWER", "--input", str(path), "--y", "value"]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "power"


def test_cli_experiment_names_in_any_letter_case(tmp_path, capsys):
    for i, name in enumerate(("EDSPECTRUM", "edSpectrum", "edspectrum")):
        out = tmp_path / str(i)
        assert main([name, "--eta", "2", "--n", "4", "--boundary", "anti",
                     "--out", str(out), "--formats", "csv"]) == 0
        assert parse_csv(out / "edspectrum.csv")[0]["experiment"] == "EdSpectrum"
    capsys.readouterr()


def test_cli_verify_level_in_any_letter_case(capsys):
    assert main(["verify", "--level", "FAST"]) == 0
    assert "level=fast" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--level", "quick"])
    assert exc.value.code == 2


def test_cli_config_file_names_the_subcommand(tmp_path, capsys):
    cfile = tmp_path / "cfg.json"
    out = str(tmp_path / "out")
    cfile.write_text(json.dumps({"experiment": "EDSPECTRUM", "eta": 2.0, "N_list": [4],
                                 "boundary": "anti"}))
    assert main(["gapscan", "--config", str(cfile), "--out", out]) == 2
    assert "EDSPECTRUM" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert main(["edspectrum", "--config", str(cfile), "--out", out,
                 "--formats", "csv"]) == 0
    assert parse_csv(tmp_path / "out" / "edspectrum.csv")[0]["N"] == 4
    capsys.readouterr()


@pytest.mark.parametrize("flags", [["--n", ""], ["--n", ","], ["--n", " "],
                                   ["--eta", ""], ["--eta", ","]],
                         ids=["n-empty", "n-comma", "n-blank", "eta-empty", "eta-comma"])
def test_cli_refuses_empty_lists(tmp_path, capsys, flags):
    # an empty list is refused, not read as an absent flag and its default
    out = tmp_path / "out"
    assert main(["EdSpectrum", *flags, "--out", str(out)]) == 2
    assert "empty" in capsys.readouterr().err
    assert not out.exists()


def test_cli_fit_has_no_size_column_flag(tmp_path, capsys):
    # the sizes are always column N
    path = tmp_path / "data.csv"
    path.write_text("N,eta,value\n" + "".join(f"{n},{n / 10},{n ** -1.0}\n" for n in (4, 6, 8)))
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--kind", "power", "--input", str(path), "--x", "eta", "--y", "value"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cli_verify_fast(tmp_path, capsys):
    # the full level is the acceptance suite (tests/test_acceptance.py)
    assert main(["verify", "--level", "fast"]) == 0
    assert "OK: 10/10 checks passed" in capsys.readouterr().out


def test_verify_mutation_detected(monkeypatch):
    # the large-N check must read the bulk density through the module
    # attribute so a perturbed implementation is caught
    assert check_large_n_consistency((200, 201)).ok
    monkeypatch.setattr(thermo, "e0_density", _offset(1e-6)(thermo.e0_density))
    assert not check_large_n_consistency((200, 201)).ok


def _offset(delta):
    return lambda original: (lambda *a, **k: original(*a, **k) + delta)


def _scale(factor):
    return lambda original: (lambda *a, **k: original(*a, **k) * factor)


def _rotate_t0_phases(original):
    def ground_space(*a, **k):
        gs = original(*a, **k)
        return dataclasses.replace(gs, t0_eigenvalues=gs.t0_eigenvalues * cmath.exp(1e-8j))
    return ground_space


def _shift_reduced_roots(original):
    def solve_log_baes(*a, **k):
        roots = original(*a, **k)
        return dataclasses.replace(roots, x=roots.x + 1e-9)
    return solve_log_baes


def _negate_sector_eigenvalue(original):
    # the ground level solved in the wrong translation sector
    def symmetries(params):
        mirror, sector = original(params)
        if sector is not None:
            parity, symmetry, eigenvalue = sector
            sector = parity, symmetry, -eigenvalue
        return mirror, sector
    return symmetries


# (check, its arguments, label, owner, attribute, perturbation) for each
# check behind criteria 4-9, the density contraction, the ED ground level
# and its band-edge limit; the e0_density case is the test above
PERTURBATIONS = [
    (check_inhom_vs_ed, ((4,),), "energy_inhom + 1e-7", baes, "energy_inhom",
     _offset(1e-7)),
    (check_inhom_vs_ed, ((4,),), "tq_eigenvalue * (1 + 1e-7)", baes, "tq_eigenvalue",
     _scale(1 + 1e-7)),
    (check_inhom_vs_ed, ((4,),), "transfer_expectations * (1 + 1e-7)", model,
     "transfer_expectations", _scale(1 + 1e-7)),
    (check_einh_signs, ((8, 10, 12), (7, 9)), "inhom_contribution * -1", baes,
     "inhom_contribution", _scale(-1.0)),
    (check_einh_signs, ((8, 10, 12), (7, 9)), "inhom_contribution * N^-2", baes,
     "inhom_contribution", lambda f: lambda N, *a, **k: f(N, *a, **k) * N ** -2.0),
    (check_large_n_consistency, ((200, 201),), "hole_quantization_energy + 2e-5",
     thermo, "hole_quantization_energy", _offset(2e-5)),
    (check_large_n_consistency, ((), (0.8, 1.0)),
     "hole_quantization_energy + 2e-8, smallest admitted N", thermo,
     "hole_quantization_energy", _offset(2e-8)),
    (check_parity_reversal, ((2.0,), (100, 101)), "twisted_boundary_energy * (1 + 1e-12)",
     thermo, "twisted_boundary_energy", _scale(1 + 1e-12)),
    (check_operator_identities, (6, 2), "transfer_matrix at u + 1e-9", model,
     "transfer_matrix", lambda f: lambda u, params: f(u + 1e-9, params)),
    (check_operator_identities, (6, 2), "build_hamiltonian at eta + 1e-5", model,
     "build_hamiltonian",
     lambda f: lambda params: f(dataclasses.replace(params, eta=params.eta + 1e-5))),
    (check_charges, ((4,), (5,)), "inhom_contribution + 1e-7", baes,
     "inhom_contribution", _offset(1e-7)),
    (check_charges, ((4,), (5,)), "t(0) phases + 1e-8", model, "ground_space",
     _rotate_t0_phases),
    # even N only: at odd N the negated sector, t(0)^2 = -1, is empty
    (check_charges, ((4,), ()), "ground sector eigenvalue * -1, momentum label", model,
     "_symmetries", _negate_sector_eigenvalue),
    (check_thermo_series, ((2.0,),), "density_fourier + 1e-9", thermo, "density_fourier",
     _offset(1e-9)),
    (check_hom_vs_ed, (range(4, 9),), "ground sector eigenvalue * -1, periodic", model,
     "_symmetries", _negate_sector_eigenvalue),
    (check_exact_vs_band_edge, ((2.0, 3.0), range(8, 13, 2)),
     "ground sector eigenvalue * -1, twisted", model, "_symmetries",
     _negate_sector_eigenvalue),
    # odd N: the reduced charges are computed from the roots, not assumed 0
    (check_charges, ((), (5, 7)), "solve_log_baes roots + 1e-9", baes, "solve_log_baes",
     _shift_reduced_roots),
]


@pytest.mark.parametrize("check, args, owner, name, make",
                         [pytest.param(c, a, o, n, m, id=label)
                          for c, a, label, o, n, m in PERTURBATIONS])
def test_check_catches_perturbation(monkeypatch, check, args, owner, name, make):
    assert check(*args).ok
    monkeypatch.setattr(owner, name, make(getattr(owner, name)))
    assert not check(*args).ok
