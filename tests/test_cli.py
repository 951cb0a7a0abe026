"""CLI tests: subcommands, exit codes, determinism, config handling."""

import contextlib
import dataclasses
import io
import json
import math
import struct
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from curvkepler import cli, coalgebra, spaces, symmetry
from curvkepler.cli import main
from curvkepler.coalgebra import BracketReport, IdentityResult


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_export_presets(capsys):
    code, out, _ = run_cli(capsys, "export-presets")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["presets"]["desitter"] == {"kappa1": -1.0, "kappa2": -1.0}
    assert len(doc["presets"]) == 6


def test_verify_full_suite_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--preset",
                           "spherical", "--samples", "100", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["max_residual"] < 1e-8
    assert {r["suite"] for r in doc["reports"]} == {"sl2z", "casimirs", "so4",
                                                    "lrl"}


def test_verify_classical_limit(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "sl2z", "--z", "0",
                           "--samples", "30", "--seed", "3")
    assert code == 0
    assert json.loads(out)["max_residual"] < 1e-10


def test_verify_rejects_degenerate_kappa2(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "so4", "--z", "1",
                           "--kappa2", "0", "--samples", "10")
    assert code == 2
    assert "degenerate" in err


def test_verify_missing_params(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "so4", "--samples", "5")
    assert code == 2
    assert "--preset" in err


def test_verify_perturbation_flags(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "so4", "--preset",
                           "spherical", "--samples", "20", "--seed", "1",
                           "--perturb", "j02")
    assert code == 1
    assert json.loads(out)["max_residual"] > 1e-3
    # in a combined run the perturbation applies to the suites that know it
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--preset",
                           "spherical", "--samples", "15", "--seed", "1",
                           "--perturb", "j02")
    assert code == 1
    # a name from the wrong family is rejected, as is a typo
    code, _, err = run_cli(capsys, "verify", "--suite", "sl2z", "--z", "0.3",
                           "--samples", "5", "--perturb", "j02")
    assert code == 2 and "sl2z" in err
    code, _, err = run_cli(capsys, "verify", "--suite", "so4", "--preset",
                           "spherical", "--samples", "5", "--perturb", "bogus")
    assert code == 2 and "unknown generator" in err


def test_verify_deterministic_output(capsys):
    args = ("verify", "--suite", "lrl", "--preset", "desitter",
            "--samples", "25", "--seed", "11")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_simulate_circular_benchmark(capsys, tmp_path):
    csv_path = tmp_path / "orbit.csv"
    summary_path = tmp_path / "drift.json"
    code, _, _ = run_cli(
        capsys, "simulate", "--family", "kepler-cc", "--z", "0", "--kappa2",
        "1", "--gamma", str(1.0 / (2.0 * math.sqrt(2.0))),
        "--state", f"1.0,{math.pi / 2},0.0,0.0,0.0,1.0",
        "--t-end", str(2 * math.pi), "--rel-tol", "1e-12",
        "--abs-tol", "1e-14", "--csv", str(csv_path),
        "--summary", str(summary_path))
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("t,r,theta,phi,p_r,p_theta,p_phi,")
    summary = json.loads(summary_path.read_text())
    assert summary["terminated_early"] is False
    assert max(v["max_drift"] for v in summary["drift"].values()) < 1e-9
    stats = summary["stats"]
    assert set(stats) == {"accepted", "rejected", "eval_failures",
                          "failure_types", "rhs_evals", "h_min", "h_max"}
    assert stats["rhs_evals"] == 1 + 6 * (stats["accepted"] + stats["rejected"])
    assert 0.0 < stats["h_min"] <= stats["h_max"]


def test_simulate_zero_time(capsys, tmp_path):
    csv_path = tmp_path / "single.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "--family", "free-cc", "--preset", "spherical",
        "--state", "1.0,1.2,0.3,0.1,0.2,0.4", "--t-end", "0",
        "--csv", str(csv_path), "--summary", str(tmp_path / "s.json"))
    assert code == 0
    assert len(csv_path.read_text().splitlines()) == 2   # header + one row


def test_simulate_collision_exits_3(capsys, tmp_path):
    csv_path = tmp_path / "plunge.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "--family", "kepler-cc", "--preset", "spherical",
        "--gamma", "0.5", "--state", "0.6,1.5707963,0.0,-1.0,0.0,0.0",
        "--t-end", "5", "--csv", str(csv_path),
        "--summary", str(tmp_path / "s.json"))
    assert code == 3
    assert len(csv_path.read_text().splitlines()) > 2    # partial CSV written
    summary = json.loads((tmp_path / "s.json").read_text())
    assert summary["terminated_early"] is True
    assert "pole" in summary["termination_reason"]


def test_simulate_beltrami_input_transformed(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys, "simulate", "--family", "free-cc", "--z", "0.3", "--kappa2",
        "1", "--chart", "beltrami", "--state", "0.4,0.5,0.6,0.2,-0.1,0.3",
        "--t-end", "1", "--csv", str(tmp_path / "b.csv"),
        "--summary", str(tmp_path / "b.json"))
    assert code == 0
    summary = json.loads((tmp_path / "b.json").read_text())
    assert summary["drift"]["H"]["max_drift"] < 1e-8


def test_simulate_invalid_state(capsys):
    code, _, err = run_cli(capsys, "simulate", "--family", "free-cc",
                           "--preset", "spherical", "--state", "1,2,3")
    assert code == 2
    assert "6" in err


def test_simulate_rejects_out(capsys, tmp_path, monkeypatch):
    """simulate writes only --csv (stdout without it) and --summary.  An
    --out, which it used to accept and ignore (the CSV went to stdout and no
    file was made), is a usage error, exit 2.  --seed and --config stay,
    and a config file's out key, which serves the other subcommands, is
    still accepted."""
    monkeypatch.chdir(tmp_path)
    argv = ["simulate", "--family", "free-cc", "--preset", "spherical",
            "--state", "1.1,1.2,0.4,0.2,0.4,0.9", "--t-end", "0.01"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--out", "o.txt"])
    err = capsys.readouterr().err
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --out" in err and "Traceback" not in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("out = o.txt\nseed = 3\n")
    code, out, _ = run_cli(capsys, *argv, "--seed", "4", "--config", str(cfg))
    assert code == 0 and out.startswith("t,r,theta,phi,")
    assert not (tmp_path / "o.txt").exists()


def test_curvature_constant_grid(capsys):
    code, out, _ = run_cli(
        capsys, "curvature", "--kind", "cc", "--chart", "polar-constant",
        "--z", "0.5", "--kappa2", "1",
        "--grid", "0.4:1.2:3,0.5:1.1:3,0.2:1.0:3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x1,x2,x3,K12,K13,K23,K,closed_K,abs_err"
    assert lines[-1].startswith("max_abs_err")
    max_err = float(lines[-1].split(",")[-1])
    assert max_err < 1e-4
    for line in lines[1:-1]:
        k_scalar = float(line.split(",")[6])
        assert abs(k_scalar - 3.0) < 1e-4


def test_curvature_flat_grid_zero(capsys):
    code, out, _ = run_cli(
        capsys, "curvature", "--kind", "nc", "--chart", "beltrami",
        "--z", "0", "--kappa2", "1", "--grid", "0.3:0.9:2,0.3:0.9:2,0.3:0.9:2")
    assert code == 0
    for line in out.strip().splitlines()[1:-1]:
        assert abs(float(line.split(",")[6])) < 1e-8


def test_curvature_singular_grid_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "curvature", "--kind", "cc", "--chart", "polar-constant",
        "--preset", "spherical", "--grid", "0.0:1.0:3,0.5:1.1:2,0.2:1.0:2")
    assert code == 2
    assert "grid point" in err


def test_rank_kepler_with_lrl(capsys):
    code, out, _ = run_cli(capsys, "rank", "--family", "kepler-cc",
                           "--preset", "spherical", "--gamma", "0.5",
                           "--samples", "50", "--seed", "9",
                           "--append-lrl", "L1")
    assert code == 0
    doc = json.loads(out)
    assert doc["expected_rank"] == 5
    assert doc["modal_rank"] == 5
    assert doc["passed"] is True


def test_rank_free_nc(capsys):
    code, out, _ = run_cli(capsys, "rank", "--family", "free-nc", "--z", "0.4",
                           "--kappa2", "1", "--samples", "50", "--seed", "9")
    assert code == 0
    assert json.loads(out)["modal_rank"] == 4


def test_rank_lrl_requires_kepler_cc(capsys):
    code, _, err = run_cli(capsys, "rank", "--family", "free-cc", "--preset",
                           "spherical", "--append-lrl", "L1", "--samples", "5")
    assert code == 2
    assert "kepler-cc" in err


def test_config_file_and_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# verification defaults\n"
        "suite = so4\n"
        "preset = hyperbolic\n"
        "samples = 20\n"
        "seed = 5\n")
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "so4"
    assert doc["samples"] == 20
    # explicit flag wins over the config value
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg),
                           "--samples", "10")
    assert json.loads(out)["samples"] == 10


def test_config_defaults_do_not_leak_into_later_calls(capsys, tmp_path):
    """Calls without --config share one parser; a --config call in between
    must not change the defaults it hands out."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples = 3\nseed = 5\nthreshold = 0.5\n")
    plain = ("verify", "--suite", "so4", "--preset", "hyperbolic")
    code, before, _ = run_cli(capsys, *plain)
    assert code == 0
    code, out, _ = run_cli(capsys, *plain, "--config", str(cfg))
    assert code == 0
    assert (json.loads(out)["samples"], json.loads(out)["seed"]) == (3, 5)
    code, after, _ = run_cli(capsys, *plain)
    assert code == 0 and after == before
    doc = json.loads(after)
    assert (doc["samples"], doc["seed"], doc["threshold"]) == (100, 0, 1e-8)


def test_config_values_are_parsed_by_their_option_type(capsys, tmp_path, monkeypatch):
    """A config value goes through its option's own type: a bad int is a
    usage error (exit 2, no traceback), and a numeric path stays a path."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples = 2.5\n")
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--suite", "so4", "--preset", "hyperbolic", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert exit_info.value.code == 2
    assert "invalid int value" in err and "Traceback" not in err
    monkeypatch.chdir(tmp_path)
    cfg.write_text("out = 7\nsamples = 3\n")
    code, out, _ = run_cli(capsys, "verify", "--suite", "so4", "--preset",
                           "hyperbolic", "--config", str(cfg))
    assert code == 0 and out == ""
    assert json.loads((tmp_path / "7").read_text())["samples"] == 3


def test_config_key_that_names_no_option_is_a_usage_error(capsys, tmp_path):
    """A typo in a config key used to be ignored silently (the default ran);
    a key of another subcommand's option stays accepted."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sampels = 3\nseed = 5\n")
    code, out, err = run_cli(capsys, "verify", "--suite", "so4", "--preset",
                             "hyperbolic", "--config", str(cfg))
    assert code == 2 and out == ""
    assert "'sampels'" in err and "Traceback" not in err
    cfg.write_text("samples = 3\nstride = 7\nt-end = 0.5\n")
    code, out, _ = run_cli(capsys, "verify", "--suite", "so4", "--preset",
                           "hyperbolic", "--config", str(cfg))
    assert code == 0 and json.loads(out)["samples"] == 3


def test_config_file_bad_line(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("samples 20\n")
    code, _, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 2
    assert "key = value" in err


def test_config_file_that_is_not_utf8_exits_2_naming_it(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"samples = 5\n\xff\xfe = 3\n")
    code, out, err = run_cli(capsys, "verify", "--config", str(cfg),
                             "--preset", "spherical")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {cfg}: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_verify_casimirs_suite_and_out_file(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, stdout, _ = run_cli(capsys, "verify", "--suite", "casimirs", "--z",
                              "0.25", "--samples", "30", "--seed", "2",
                              "--out", str(out))
    assert code == 0
    assert stdout == ""
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    groups = {r["group"] for rep in doc["reports"] for r in rep["results"]}
    assert "coproduct" in groups and "centrality" in groups


def test_simulate_implicit_midpoint(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys, "simulate", "--family", "kepler-cc", "--preset", "spherical",
        "--gamma", "0.45", "--state", "1.1,1.2,0.4,0.2,0.4,0.9",
        "--t-end", "3", "--method", "implicit-midpoint", "--fixed-step",
        "0.005", "--stride", "20", "--csv", str(tmp_path / "m.csv"),
        "--summary", str(tmp_path / "m.json"))
    assert code == 0
    summary = json.loads((tmp_path / "m.json").read_text())
    assert summary["drift"]["H"]["max_drift"] < 1e-3   # second-order stepper


def test_simulate_runaway_exits_3_with_partial_csv(capsys, tmp_path):
    """z > 0 variable-curvature escape ends in step underflow; the partial
    trajectory is still exported and the exit code signals the singularity."""
    csv_path = tmp_path / "runaway.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "--family", "kepler-nc", "--z", "0.4",
        "--kappa2", "1", "--gamma", "0.45",
        "--state", "1.0,1.2,0.4,0.5,0.2,0.6", "--t-end", "30",
        "--csv", str(csv_path), "--summary", str(tmp_path / "r.json"))
    assert code == 3
    assert len(csv_path.read_text().splitlines()) > 2
    summary = json.loads((tmp_path / "r.json").read_text())
    assert summary["terminated_early"] is True


def test_curvature_variable_polar_chart(capsys):
    code, out, _ = run_cli(
        capsys, "curvature", "--kind", "nc", "--chart", "polar-variable",
        "--z", "0.25", "--kappa2", "1",
        "--grid", "0.5:1.3:3,0.6:1.3:3,0.3:1.1:3")
    assert code == 0
    lines = out.strip().splitlines()
    assert float(lines[-1].split(",")[-1]) < 1e-4


def test_simulate_and_rank_deterministic(capsys, tmp_path):
    sim_args = ("simulate", "--family", "kepler-cc", "--preset", "spherical",
                "--gamma", "0.45", "--state", "1.0,1.2,0.3,0.05,0.2,0.9",
                "--t-end", "2")
    outs = []
    for i in (1, 2):
        csv_path = tmp_path / f"o{i}.csv"
        code, _, _ = run_cli(capsys, *sim_args, "--csv", str(csv_path),
                             "--summary", str(tmp_path / f"s{i}.json"))
        assert code == 0
        outs.append(csv_path.read_bytes())
    assert outs[0] == outs[1]
    rank_args = ("rank", "--family", "kepler-cc", "--preset", "spherical",
                 "--gamma", "0.5", "--samples", "20", "--seed", "4")
    _, out1, _ = run_cli(capsys, *rank_args)
    _, out2, _ = run_cli(capsys, *rank_args)
    assert out1 == out2


def test_verify_lrl_runs_at_the_gamma_it_is_given(capsys):
    """An explicit --gamma 0 is checked at gamma = 0, not swapped for 0.5."""
    code, out, _ = run_cli(capsys, "verify", "--suite", "lrl", "--preset",
                           "spherical", "--gamma", "0")
    doc = json.loads(out)
    assert code == 0 and doc["passed"] is True
    assert doc["params"]["gamma"] == 0.0
    assert doc["reports"][0]["params"]["gamma"] == 0.0


_ORBIT = ("--family", "kepler-cc", "--preset", "spherical", "--gamma", "0.5",
          "--state", "1.1,1.2,0.4,0.2,0.4,0.9")


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "sl2z", "--z", "nan"),
    ("verify", "--suite", "so4", "--z", "nan", "--kappa2", "1"),
    ("verify", "--suite", "lrl", "--z", "1", "--kappa2", "inf"),
    ("verify", "--preset", "spherical", "--gamma", "nan"),
    ("rank", "--family", "kepler-cc", "--preset", "spherical", "--gamma=-inf"),
    ("simulate", *_ORBIT, "--t-end", "nan"),
    ("simulate", *_ORBIT, "--t-end", "inf"),
    ("simulate", *_ORBIT, "--rel-tol", "nan"),
    ("simulate", *_ORBIT, "--abs-tol", "inf"),
    ("simulate", *_ORBIT, "--max-step", "nan"),
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_non_finite_inputs_exit_2_quickly(capsys, argv):
    t0 = time.perf_counter()
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and ("finite" in err or "NaN" in err)
    assert time.perf_counter() - t0 < 5.0


@pytest.mark.parametrize("flags", [
    ("--max-step", "0"),
    ("--max-step", "-1"),
    ("--state", "1,0,0,0,0,1"),        # theta = 0: polar axis
    ("--state", "0,1,0,0,0,1"),        # r = 0: radial pole
], ids=lambda flags: " ".join(flags))
def test_invalid_step_or_singular_start_exits_2(capsys, tmp_path, flags):
    t0 = time.perf_counter()
    code, _, err = run_cli(capsys, "simulate", *_ORBIT, "--t-end", "1", *flags,
                           "--csv", str(tmp_path / "o.csv"),
                           "--summary", str(tmp_path / "s.json"))
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert ("max_step" in err) if flags[0] == "--max-step" else ("singular" in err)
    assert time.perf_counter() - t0 < 5.0


@pytest.mark.parametrize("flags", [
    ("--fixed-step", "-1"),
    ("--fixed-step", "1e-9"),
    ("--max-step", "1e-9"),
], ids=lambda flags: " ".join(flags))
def test_step_that_cannot_reach_t_end_exits_2_quickly(capsys, tmp_path, flags):
    """A negative fixed step used to run adaptively and exit 0; a 1e-9 step
    to t = 10 ran on (past 15 s) towards max-steps-exceeded."""
    t0 = time.perf_counter()
    code, _, err = run_cli(capsys, "simulate", *_ORBIT, "--t-end", "10", *flags,
                           "--csv", str(tmp_path / "o.csv"),
                           "--summary", str(tmp_path / "s.json"))
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert time.perf_counter() - t0 < 1.0


def test_verify_all_passes_where_a_cancelling_casimir_only_rounds(capsys, tmp_path):
    """perfbench verify-sweep item verify033 at seed 20201: casimir(generators)
    = C123 cancels two terms near 4e7 at one state, which read 1.30e-8 on an
    absolute scale; with the terms on opposite sides the row reads 1.6e-15."""
    code, _, _ = run_cli(capsys, "verify", "--suite", "all", "--preset", "spherical",
                         "--samples", "10", "--seed", "383022396",
                         "--out", str(tmp_path / "v.json"))
    assert code == 0


@pytest.mark.parametrize("argv", [
    ("--family", "free-cc", "--state", "0.6,1.5707963,0,-1,0,0"),
    ("--family", "kepler-cc", "--gamma", "0.5", "--state", "1.0,0.3,0,0,-1,0"),
], ids=["through the radial pole", "over the polar axis"])
def test_a_step_across_a_chart_singularity_ends_the_run(capsys, tmp_path, argv):
    code, _, _ = run_cli(capsys, "simulate", "--preset", "spherical", *argv,
                         "--t-end", "2", "--csv", str(tmp_path / "o.csv"),
                         "--summary", str(tmp_path / "s.json"))
    assert code == 3
    assert json.loads((tmp_path / "s.json").read_text())["termination_reason"]


def test_simulate_midpoint_divergence_exits_3(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "simulate", *_ORBIT, "--t-end", "4",
                         "--method", "implicit-midpoint", "--fixed-step", "2.0",
                         "--csv", str(tmp_path / "m.csv"),
                         "--summary", str(tmp_path / "m.json"))
    assert code == 3
    summary = json.loads((tmp_path / "m.json").read_text())
    assert summary["termination_reason"] == "midpoint-not-converged"


def test_verify_nan_residual_fails_the_run(capsys, monkeypatch):
    def reports(*args):
        rows = [IdentityResult("ok", "g", 1, 1e-12, ()),
                IdentityResult("nan", "g", 1, math.nan, ())]
        return [BracketReport("a", 1, 0, results=rows[:1]),
                BracketReport("b", 1, 0, results=rows)]

    monkeypatch.setattr(cli, "_run_suites", reports)
    code, out, _ = run_cli(capsys, "verify", "--preset", "spherical")
    assert code == 1
    doc = json.loads(out)
    assert math.isnan(doc["max_residual"]) and doc["passed"] is False


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "-1", "0", "-0.0"])
def test_verify_threshold_that_is_not_finite_and_positive_exits_2(capsys, threshold):
    code, out, err = run_cli(capsys, "verify", "--suite", "sl2z", "--z", "0",
                             "--samples", "3", f"--threshold={threshold}")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--threshold" in err


def test_curvature_unknown_chart_exits_2(capsys):
    code, out, err = run_cli(capsys, "curvature", "--kind", "cc", "--chart", "bogus",
                             "--preset", "spherical", "--grid", "0.5:0.6:2,1:1.1:1,0.3:0.3:1")
    assert code == 2 and out == ""
    assert err.startswith("error: unknown chart 'bogus'")


_COALGEBRA_GENS = ("jminus", "jplus", "jthree")
_SO4_GENS = ("j01", "j02", "j03", "j12", "j13", "j23")
_SUITE_GENS = {"all": _COALGEBRA_GENS + _SO4_GENS, "sl2z": _COALGEBRA_GENS,
               "casimirs": _COALGEBRA_GENS, "so4": _SO4_GENS, "lrl": _SO4_GENS}


def _separate_reports(suite, params, samples, seed, perturb):
    """Each suite's reports from its own verify_* call, in the CLI's order."""
    cperturb = perturb if perturb in _COALGEBRA_GENS else None
    sperturb = perturb if perturb in _SO4_GENS else None
    z, kw = params.z, {"samples": samples, "seed": seed}
    reports = []
    if suite in ("sl2z", "all"):
        reports += [coalgebra.verify_sl2z(r, perturb=cperturb, **kw)
                    for r in (coalgebra.one_site(z), coalgebra.three_site(z))]
    if suite in ("casimirs", "all"):
        reports.append(coalgebra.verify_casimirs(z, perturb=cperturb, **kw))
    if suite in ("so4", "all"):
        reports.append(symmetry.verify_so4(params, perturb=sperturb, **kw))
    if suite in ("lrl", "all"):
        reports.append(symmetry.verify_lrl_algebra(params, perturb=sperturb, **kw))
    return reports


@pytest.mark.parametrize("suite", sorted(_SUITE_GENS))
@pytest.mark.parametrize("params", [
    spaces.SpaceParams(0.0, 1.0, 0.5), spaces.SpaceParams(0.3, -1.0, 0.5),
    spaces.SpaceParams(-0.3, 1.0, 0.9), spaces.SpaceParams(0.3, 1.0, 1.7),
], ids=["z=0", "z=0.3 k2=-1", "z=-0.3 gamma=0.9", "z=0.3 gamma=1.7"])
def test_batched_suites_report_what_separate_calls_report(suite, params):
    """The suites that share a sampler run as one batch; each report is the
    one its own verify_* call gives, perturbed or not, and a second call,
    which finds its column plans and compiled code cached, gives it again."""
    for perturb in (None, *_SUITE_GENS[suite]):
        batched = cli._run_suites(suite, params, 4, 11, perturb)
        separate = _separate_reports(suite, params, 4, 11, perturb)
        warm = cli._run_suites(suite, params, 4, 11, perturb)
        assert len(batched) == len(separate) == len(warm) == (
            5 if suite == "all" else 2 if suite == "sl2z" else 1)
        for b, s, w in zip(batched, separate, warm):
            assert b.to_json() == s.to_json() == w.to_json(), (suite, perturb, s.suite)


_CURVATURE_CC = ("curvature", "--kind", "cc", "--chart", "polar-constant",
                 "--preset", "spherical")
_GRID = "0.5:0.6:2,1:1.1:1,0.3:0.3:1"


@pytest.mark.parametrize("grid, step", [
    (_GRID, "0"),
    (_GRID, "-1e-4"),
    (_GRID, "nan"),
    (_GRID, "inf"),
    ("0.5:nan:2,1:1.1:1,0.3:0.3:1", "1e-4"),
    ("0.5:0.6:2,1:1.1:1,-inf:0.3:1", "1e-4"),
], ids=["step 0", "step -1e-4", "step nan", "step inf", "grid nan", "grid -inf"])
def test_curvature_bad_step_or_non_finite_grid_exits_2(capsys, grid, step):
    code, out, err = run_cli(capsys, *_CURVATURE_CC, "--grid", grid, f"--step={step}")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_curvature_nan_row_makes_max_abs_err_nan(capsys, monkeypatch):
    real = spaces.curvature

    def curvature(chart, kind, point, params, h=1e-4):
        res = real(chart, kind, point, params, h=h)
        if point[0] > 0.55:             # the second of the two rows
            res = dataclasses.replace(res, kscalar=math.nan)
        return res

    monkeypatch.setattr(spaces, "curvature", curvature)
    code, out, _ = run_cli(capsys, *_CURVATURE_CC, "--grid", _GRID)
    assert code == 0
    lines = out.strip().splitlines()
    assert float(lines[1].split(",")[-1]) < 1e-4
    assert math.isnan(float(lines[2].split(",")[-1]))
    assert lines[-1] == "max_abs_err,,,,,,,,nan"


def test_curvature_step_that_does_not_move_a_coordinate_exits_2(capsys):
    code, out, err = run_cli(capsys, "curvature", "--preset", "spherical",
                             "--chart", "polar-constant", "--kind", "cc",
                             "--grid", "0.5:1.2:2,0.6:1.4:2,0.2:1.2:2", "--step", "1e-300")
    assert code == 2 and out == "" and "Traceback" not in err
    assert err == ("error: grid point (0.5, 0.6, 0.2): finite-difference step "
                   "1e-300 does not move coordinate x1 = 0.5\n")


def test_curvature_step_below_the_rounding_floor_exits_2_naming_the_grid_point(capsys):
    code, out, err = run_cli(capsys, "curvature", "--preset", "spherical",
                             "--chart", "polar-constant", "--kind", "cc",
                             "--grid", "0.5:1.2:2,0.6:1.4:2,0.2:1.2:2", "--step", "1e-8")
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith("error: grid point (0.5, 0.6, 0.2): finite-difference step "
                          "1e-08 is below 1e-6 max(1, |x1|)")


@pytest.mark.parametrize("kind, reason", [
    ("cc", "OverflowError: math range error"),
    ("nc", "metric degenerate at evaluation point"),
])
def test_curvature_error_names_its_grid_point(capsys, kind, reason):
    code, out, err = run_cli(capsys, "curvature", "--kind", kind, "--chart", "beltrami",
                             "--z", "-400", "--kappa2", "1",
                             "--grid", "0.9:0.95:2,0.9:0.95:1,0.9:0.95:1")
    assert code == 2 and out == ""
    assert err == f"error: grid point (0.9, 0.9, 0.9): {reason}\n"


def test_curvature_metric_overflow_exits_2_naming_its_grid_point(capsys):
    """The Beltrami cc scale overflows a finite metric entry here; the run
    must stop there rather than carry an inf into the curvature."""
    code, out, err = run_cli(capsys, "curvature", "--kind", "cc", "--chart", "beltrami",
                             "--z", "-400", "--kappa2", "1",
                             "--grid", "0.01:0.01:1,1:1:1,0.5:0.5:1")
    assert code == 2 and out == ""
    assert err == ("error: grid point (0.01, 1, 0.5): FloatingPointError: "
                   "overflow encountered in multiply\n")


def test_curvature_bad_step_is_not_blamed_on_a_grid_point(capsys, monkeypatch):
    monkeypatch.setattr(spaces, "curvature", lambda *a, **k: pytest.fail("point evaluated"))
    code, out, err = run_cli(capsys, *_CURVATURE_CC, "--grid", _GRID, "--step", "0")
    assert code == 2 and out == ""
    assert err == "error: --step must be finite and > 0, got 0.0\n"


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "sl2z", "--z", "1e300", "--samples", "2"),
    ("verify", "--suite", "so4", "--z", "1e300", "--kappa2", "1", "--samples", "2"),
    ("rank", "--family", "kepler-cc", "--z", "1e300", "--kappa2", "1",
     "--samples", "2"),
    ("curvature", "--kind", "nc", "--chart", "beltrami", "--z", "800",
     "--kappa2", "1", "--grid", "1:1:1,1:1:1,1:1:1"),
], ids=["sl2z overflow", "so4 pole", "rank pole", "curvature overflow"])
def test_arithmetic_breakdown_exits_2_with_one_error_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


# 1e14 rows of float64 is hundreds of TiB, more than any address space holds,
# so numpy refuses the allocation at once.
_UNALLOCATABLE = "100000000000000"


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "sl2z", "--z", "0.3", "--samples", _UNALLOCATABLE),
    ("rank", "--family", "free-cc", "--preset", "spherical", "--samples", _UNALLOCATABLE),
    ("curvature", "--kind", "nc", "--chart", "beltrami", "--z", "0.3", "--kappa2", "1",
     "--grid", f"0.5:0.5:1,0.5:0.5:1,0.5:0.5:{_UNALLOCATABLE}"),
], ids=["verify samples", "rank samples", "curvature grid"])
def test_a_size_numpy_cannot_allocate_exits_2_with_one_error_line(capsys, argv):
    """numpy's allocation failure used to escape ``main`` as a traceback and
    exit 1, the verification-failure code."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith("error: MemoryError: Unable to allocate ")
    assert len(err.splitlines()) == 1


_CURVATURE_GRID = ("curvature", "--kind", "cc", "--chart", "polar-constant",
                   "--preset", "spherical")


@pytest.mark.parametrize("argv, message", [
    (("simulate", "--preset", "spherical", "--state", "1.1,1.2,0.4,0.2,0.4,0.9"),
     "--family is required"),
    (("simulate", "--family", "kepler-cc", "--preset", "spherical"), "--state is required"),
    (("rank", "--preset", "spherical"), "--family is required"),
    (_CURVATURE_GRID, "--grid is required"),
    (("curvature", "--kind", "cc", "--preset", "spherical", "--grid", "1:1:1,1:1:1,1:1:1"),
     "--chart is required"),
    ((*_CURVATURE_GRID, "--grid", "0.5:1.2:2,0.6:1.4:2"), "--grid needs three ranges lo:hi:n"),
    ((*_CURVATURE_GRID, "--grid", "0.5:1.2,0.6:1.4:2,0.2:1.2:2"),
     "bad grid axis '0.5:1.2'; want lo:hi:n"),
])
def test_a_missing_or_malformed_argument_exits_2_with_one_error_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_rank_zero_samples_exits_2(capsys):
    code, _, err = run_cli(capsys, "rank", "--family", "kepler-cc",
                           "--preset", "spherical", "--samples", "0")
    assert code == 2
    assert err == "error: samples must be >= 1\n"


# -- every command over a bounded flag space --------------------------------

# Numeric flags draw a valid value three times in four, otherwise zero, a
# negative, NaN, an infinity or 1e300.  Sample counts stay <= 3, --t-end
# <= 0.5 and grid axes <= 2 points, so every example runs in milliseconds.
_BAD = ["0", "-1", "nan", "inf", "-inf", "1e300"]


def _num(*valid):
    return st.sampled_from(list(valid) * (3 * len(_BAD) // len(valid)) + _BAD)


def _flag(flag, values):
    """``flag=value`` (the ``=`` form lets argparse take ``-inf``)."""
    return values.map(lambda v: (f"{flag}={v}",))


def _opt(flag, values):
    return st.one_of(st.just(()), _flag(flag, values))


def _flags(*parts):
    return st.tuples(*parts).map(lambda ps: sum(ps, ()))


def _space(z="0.3", kappa2="1", gamma="0.5"):
    explicit = _flags(_flag("--z", _num(z, "-0.3")),
                      _flag("--kappa2", _num(kappa2, "-1")))
    preset = _flag("--preset", st.sampled_from(sorted(spaces.PRESETS)))
    return _flags(st.one_of(preset, explicit), _opt("--gamma", _num(gamma)))


def _state():
    """A regular start state with at most one coordinate replaced."""
    good = ("1.1", "1.2", "0.4", "0.2", "0.4", "0.9")
    return st.tuples(st.integers(0, 8), st.sampled_from(_BAD)).map(
        lambda ib: ",".join(ib[1] if i == ib[0] else v for i, v in enumerate(good)))


_FAMILY = st.sampled_from(["kepler-cc", "free-cc", "kepler-nc", "free-nc",
                           "custom", "bogus"])
_CHART = st.sampled_from(["polar-constant", "polar-variable", "beltrami"])
_SAMPLES = st.sampled_from(["1", "3", "0", "-1"])

_VERIFY = _flags(
    st.just(("verify",)),
    _flag("--suite", st.sampled_from(["sl2z", "casimirs", "so4", "lrl", "all"])),
    _space(), _flag("--samples", _SAMPLES), _opt("--threshold", _num("1e-8")),
    _opt("--perturb", st.sampled_from(["jplus", "j02", "bogus"])),
    _opt("--seed", st.sampled_from(["0", "7"])))

_SIMULATE = _flags(
    st.just(("simulate",)), _flag("--family", _FAMILY), _space(),
    _flag("--state", _state()), _opt("--chart", _CHART),
    _flag("--t-end", st.sampled_from(["0.5", "0.1", "0", "-1", "nan", "-inf"])),
    _opt("--rel-tol", _num("1e-6")), _opt("--abs-tol", _num("1e-8")),
    _opt("--max-step", _num("0.05")), _opt("--stride", st.sampled_from(["3", "0"])),
    _opt("--method", st.sampled_from(["dopri54", "implicit-midpoint"])),
    _opt("--fixed-step", _num("0.1")))

_AXIS = st.tuples(_num("0.5", "0.9"), _num("0.7", "1.1"),
                  st.sampled_from(["1", "2", "0"])).map(":".join)
_CURVATURE = _flags(
    st.just(("curvature",)), _flag("--kind", st.sampled_from(["cc", "nc", "bogus"])),
    _flag("--chart", _CHART), _space(),
    _flag("--grid", st.lists(_AXIS, min_size=3, max_size=3).map(",".join)),
    _opt("--step", _num("1e-4")))

_RANK = _flags(
    st.just(("rank",)), _flag("--family", _FAMILY), _space(),
    _flag("--samples", _SAMPLES),
    _opt("--append-lrl", st.sampled_from(["L1", "L3", "none"])),
    _opt("--seed", st.sampled_from(["0", "7"])))

_COMMANDS = st.one_of(_VERIFY, _SIMULATE, _CURVATURE, _RANK,
                      st.just(("export-presets",)))


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=_COMMANDS)
def test_every_command_returns_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code in (0, 1, 2, 3), (argv, code)
    if code == 2:
        assert err.getvalue().startswith("error:"), (argv, err.getvalue())


_FLOATS = st.one_of(
    st.floats(), st.floats().map(np.float64),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                     2.2250738585072014e-308 / 3, 1e300, np.float64(-0.0), np.float64(math.nan)]))
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-10**80, 10**80),
                     _FLOATS, st.text(), st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é€😀", ""]))
_DOCS = st.recursive(_SCALARS, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=6), kids, max_size=4)), max_leaves=25)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(doc=_DOCS)
def test_report_writer_writes_what_json_dumps_writes(doc):
    assert cli._json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [
    [-0.0, 5e-324, 1e16, 1e-7],
    [1.0, math.inf, 2.0], [-math.inf, 0.5], [0.25, math.nan],
    {"worst_point": [1.5, math.nan, -2.0], "max_residual": math.inf},
    [1.0, np.float64(2.5), -0.0], [np.float64(1e-7), 3.0],
    (1.0, -0.0, 1e300), [], {"a": [], "b": ()},
    [[1.0, 2.0], [math.inf], (0.5,)],
], ids=["floats", "inf", "-inf", "nan", "dict with nan and inf",
        "float and np.float64", "np.float64 first", "tuple", "empty", "empty in dict",
        "nested"])
def test_report_writer_joins_float_lists_as_json_dumps_writes_them(doc):
    assert cli._json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


_NAN2 = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000002))[0]


@pytest.mark.parametrize("doc", [
    [[x, 1.0] for x in (0.0, -0.0, math.nan, _NAN2) * 2],
    {"a": [0.0, 1.0], "b": [-0.0, 1.0], "c": [math.nan, 1.0],
     "d": [0.0, 1.0], "e": [-0.0, 1.0], "f": [math.nan, 1.0]},
    {"a": [0.5, 1.5], "b": {"c": [0.5, 1.5], "d": [[0.5, 1.5]]}},
    [[0.5, 1.5], [[0.5, 1.5]], [[[0.5, 1.5]]]],
    [{"b": 1, "a": [2.0]}, {"a": [2.0], "b": 1}, {"b": {"b": 1, "a": 2}, "a": {"a": 3, "b": 4}}],
    {'"q"': 1, "back\\slash": 2, "\n": 3, "tab\t": [1.0], "é": 4, "\x00": 5, "😀": 6},
], ids=["signed zeros and nans twice", "signed zeros and nans in a dict",
        "one list at three depths in dicts", "one list at three depths in lists",
        "same keys in two orders", "keys that need escaping"])
def test_report_writer_keeps_bits_depths_and_key_orders_apart(doc):
    """What the per-document float-list memo and the cached dict layouts
    must not share: lists whose floats compare equal but differ in bits, one
    list at two indents, one key set in two insertion orders."""
    assert cli._json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("bad", [np.int64(3), {1, 2}, [0.5, {"a": np.int64(1)}],
                                 {"a": (1, {2})}, np.bool_(True), object()])
def test_report_writer_rejects_what_json_rejects(bad):
    with pytest.raises(TypeError):
        json.dumps(bad, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        cli._json_text(bad)


def test_reports_and_summaries_are_json_dumps_bytes(tmp_path, capsys):
    """The files and the stderr summary hold exactly json.dumps's text."""
    out = tmp_path / "v.json"
    assert main(["verify", "--suite", "all", "--preset", "hyperbolic", "--samples", "7",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True)
    assert main(["simulate", "--family", "free-cc", "--preset", "spherical", "--state",
                 "1.0,1.2,0.4,0.15,0.4,0.8", "--t-end", "0.2",
                 "--csv", str(tmp_path / "o.csv")]) == 0
    err = capsys.readouterr().err
    assert err == json.dumps(json.loads(err), indent=2, sort_keys=True) + "\n"
