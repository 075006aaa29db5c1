import hashlib
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import lagdeform
from lagdeform import pipeline
from lagdeform.cli import main
from lagdeform.corpus import CORPUS_NAMES, load_corpus_problem
from lagdeform.expressions import chart_names


def corpus_file(name: str) -> str:
    return str(resources.files("lagdeform") / "corpus" / f"{name}.json")


def corpus_problem(name: str) -> dict:
    return json.loads(open(corpus_file(name)).read())


def shifted_exp_class() -> dict:
    # L shifted by 999: Phi' = exp(L) overflows math.exp at every sample
    problem = corpus_problem("exp-class")
    problem["params"]["a"] = 1000.0
    return problem


def test_report_json_to_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        [
            "report",
            "--problem",
            corpus_file("lienard"),
            "--format",
            "json",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "DeformableRegular"
    assert doc["classification"]["chosen"]["family"] == "PowerShift"


def test_check_text_stdout(capsys):
    code = main(["check", "--problem", corpus_file("free-particle")])
    captured = capsys.readouterr()
    assert code == 0
    assert "verdict: ConservativeAffineOnly" in captured.out


def test_exit_code_not_of_theorem_form(tmp_path):
    # the linear rotationally damped oscillator: its Lagrange differential is
    # not aligned with d_J L, so no deformation exists
    problem = {
        "name": "linear-damped",
        "dim": 2,
        "params": {"a": 1.0, "b": 1.0, "w": 1.0},
        "spray": ["(a*x1 + b*x2 + w*y1)/2", "(-b*x1 + a*x2 - w*y2)/2"],
        "lagrangian": "0.5*(y1^2 + y2^2)",
        "box": {v: [0.5, 2.0] for v in ("x1", "x2", "y1", "y2")},
        "sampling": {"count": 150, "seed": 2, "guard": 1e-6},
    }
    path = tmp_path / "linear.json"
    path.write_text(json.dumps(problem))
    code = main(["verify", "--problem", str(path), "--out", str(tmp_path / "r.txt")])
    assert code == 1


def test_exit_code_inconclusive(tmp_path):
    problem = corpus_problem("free-particle")
    problem["sigma"] = ["0.1", "0"]
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps(problem))
    code = main(["check", "--problem", str(path), "--out", str(tmp_path / "r.txt")])
    assert code == 2


def test_exit_code_input_errors(tmp_path, capsys):
    assert main(["check", "--problem", str(tmp_path / "missing.json")]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x"}))
    assert main(["check", "--problem", str(bad)]) == 3
    capsys.readouterr()


def test_a_malformed_value_is_an_input_error(tmp_path, capsys):
    problem = corpus_problem("lienard")
    problem["sampling"]["guard"] = [1e-6]
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(problem))
    assert main(["check", "--problem", str(path)]) == 3
    assert capsys.readouterr().err.startswith("error: problem field 'sampling'")


def test_sample_and_seed_overrides(tmp_path):
    out = tmp_path / "r.json"
    code = main(
        [
            "classify",
            "--problem",
            corpus_file("lienard"),
            "--samples",
            "120",
            "--seed",
            "99",
            "--format",
            "json",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["conditions"]["sigma_condition"]["accepted"] == 120


def test_geodesic_csv(tmp_path, capsys):
    csv_path = tmp_path / "traj.csv"
    code = main(
        [
            "geodesic",
            "--problem",
            corpus_file("lienard"),
            "--x0",
            "1.0",
            "--y0",
            "0.5",
            "--step",
            "0.01",
            "--horizon",
            "0.5",
            "--csv",
            str(csv_path),
        ]
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,x1,y1,E_L,E_PhiL"
    assert len(lines) == 52  # header + 51 states
    capsys.readouterr()


def test_geodesic_dimension_mismatch(capsys):
    code = main(
        [
            "geodesic",
            "--problem",
            corpus_file("lienard"),
            "--x0",
            "1.0",
            "0.5",
            "--y0",
            "0.5",
        ]
    )
    assert code == 3
    capsys.readouterr()


GEODESIC_DIGESTS = dict(
    line.split()[::-1]
    for line in (Path(__file__).parent / "golden" / "geodesic" / "SHA256SUMS")
    .read_text(encoding="utf-8")
    .splitlines()
    if line and not line.startswith("#")
)

# the corpus problems whose box-mid geodesic does not exit 0, with the error
GEODESIC_FAILURES = {"homogeneous": "error: non-finite state (blow-up) at step 542"}


def _geodesic_from_the_box_middle(name, csv_path):
    spec = load_corpus_problem(name)
    mid = [repr(0.5 * (lo + hi)) for lo, hi in (spec.bounds[v] for v in chart_names(spec.n))]
    return main(
        ["geodesic", "--problem", corpus_file(name), "--csv", str(csv_path)]
        + ["--x0", *mid[: spec.n], "--y0", *mid[spec.n :]]
    )


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_geodesic_csv_from_the_box_middle_matches_pinned_sha256(tmp_path, capsys, name):
    # the CSV runs energy_along for L and Phi(L): this pins the along-flow
    # checks through the CLI, byte for byte
    csv_path = tmp_path / "traj.csv"
    code = _geodesic_from_the_box_middle(name, csv_path)
    captured = capsys.readouterr()
    if name in GEODESIC_FAILURES:
        assert name not in GEODESIC_DIGESTS
        assert code == 3
        assert captured.err == GEODESIC_FAILURES[name] + "\n"
        return
    assert code == 0, captured.err
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == GEODESIC_DIGESTS[name]


def test_geodesic_runs_no_stage_after_synthesis(monkeypatch, tmp_path, capsys):
    # the CSV reads only Phi: a stage after synthesis that would raise an
    # error main does not catch is never reached, and the CSV is written
    def unreachable(*args):
        raise RuntimeError("a stage after synthesis ran")

    for stage in (
        "verify_deformed_el",
        "hessian_report",
        "deformed_hessian",
        "check_homogeneous",
        "check_dissipative",
        "_trajectory_stage",
    ):
        monkeypatch.setattr(pipeline, stage, unreachable)
    csv_path = tmp_path / "traj.csv"
    assert _geodesic_from_the_box_middle("dissipative", csv_path) == 0
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == GEODESIC_DIGESTS["dissipative"]
    capsys.readouterr()


@pytest.mark.parametrize("flag", [["--format", "json"], ["--tol", "1e-3"]], ids=["format", "tol"])
def test_geodesic_refuses_the_report_flags(capsys, flag):
    # geodesic emits no report, and the identity tolerance gates no stage it runs
    with pytest.raises(SystemExit) as exit_:
        main(["geodesic", "--problem", corpus_file("lienard"), "--x0", "1", "--y0", "1", *flag])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "problem, x0, y0, horizon, message",
    [
        (corpus_problem("homogeneous"), "1 1 1", "5 5 5", "2", "non-finite state (blow-up)"),
        (corpus_problem("exp-class"), "0 0 0", "0 0 1", "0.1", "ln of non-positive value"),
        (shifted_exp_class(), "1 1 1", "1 1 1", "0.1", "Phi overflows at t = "),
    ],
    ids=["blow-up", "off-the-domain-of-L", "phi-overflow"],
)
def test_geodesic_failure_is_an_input_error(
    tmp_path, capsys, problem, x0, y0, horizon, message
):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    code = main(
        ["geodesic", "--problem", str(path)]
        + ["--x0", *x0.split(), "--y0", *y0.split(), "--horizon", horizon]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith(f"error: {message}")
    assert captured.out == ""


def test_a_geodesic_of_too_many_steps_is_an_input_error(monkeypatch, capsys):
    # rejected when the config is built: the integrator is never reached
    def unreachable(*args):
        raise RuntimeError("integrated")

    monkeypatch.setattr("lagdeform.cli.integrate_geodesic", unreachable)
    code = main(
        ["geodesic", "--problem", corpus_file("lienard"), "--x0", "1", "--y0", "1"]
        + ["--step", "1e-2", "--horizon", "1e300"]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == "error: horizon / step must be at most 1000000 steps\n"
    assert captured.out == ""


def _cli(*args):
    """``python -m lagdeform.cli`` with ``args`` in a fresh interpreter, so
    that an uncaught error shows as its traceback and exit code."""
    src = str(Path(lagdeform.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    return subprocess.run(
        [sys.executable, "-m", "lagdeform.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


@pytest.mark.parametrize(
    "flag", [["--horizon", "inf"], ["--step", "nan"]], ids=["infinite-horizon", "nan-step"]
)
def test_a_geodesic_step_or_horizon_that_is_not_finite_is_an_input_error(flag):
    done = _cli("geodesic", "--problem", corpus_file("lienard"), "--x0", "1", "--y0", "1", *flag)
    assert done.returncode == 3
    assert done.stderr == "error: step and horizon must be finite\n"
    assert done.stdout == ""


def _one_dimensional(spray, lagrangian, sigma):
    return {
        "name": "degenerate",
        "dim": 1,
        "params": {},
        "spray": spray,
        "lagrangian": lagrangian,
        "sigma": sigma,
        "box": {"x1": [0.5, 2.0], "y1": [0.5, 2.0]},
        "sampling": {"count": 50, "seed": 1, "guard": 1e-6},
    }


@pytest.mark.parametrize(
    "problem",
    [
        # C(L) = 0 everywhere: the sigma condition is undefined
        _one_dimensional(["0"], "x1", ["-1"]),
        # sigma = ln(x1 - 1.99) is evaluable on a sliver of the box only
        _one_dimensional(["0.5*y1"], "0.5*y1^2", ["ln(x1 - 1.99)"]),
        # Phi has no float value at any sampled L, so the deformed Hessian starves
        shifted_exp_class(),
    ],
    ids=["vanishing-liouville", "unevaluable-sigma", "phi-overflow"],
)
def test_degenerate_problems_report_inconclusive(tmp_path, problem):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    done = _cli("report", "--problem", str(path))
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert "verdict: Inconclusive" in done.stdout
