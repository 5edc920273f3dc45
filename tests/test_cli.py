"""CLI behavior: formats, exit statuses, zero-file plumbing, determinism."""

from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

from zetaprod import cli, zerodist
from zetaprod.cli import ZERO_FILE_ENV, main
from zetaprod.errors import ConvergenceError
from zetaprod.zerodist import ZeroList, phi_smooth, predict_zeros


#: The zero file shipped in the package: every ordinate below 100.
BUNDLED = str(resources.files("zetaprod").joinpath("data/zeros_t100.txt"))


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(ZERO_FILE_ENV, raising=False)


@pytest.fixture(scope="module")
def bundled_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("zeros") / "zeros_t100.txt"
    ZeroList.bundled().write(path)
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------ xi-eval


def test_xi_eval_center(capsys):
    code, out, err = run(capsys, "xi-eval", "--z", "0")
    assert code == 0
    assert out == "xi=0.497121 ln_xi=-0.69892\n"


def test_xi_eval_complex_with_asymptotics(capsys):
    code, out, _ = run(capsys, "xi-eval", "--z", "12,3")
    assert code == 0
    assert "asym_dev=" in out and "asym_bound=" in out


@pytest.mark.parametrize("z,expected", [
    ("0,950", "xi=0.000000+0.000000j ln_xi=-734.11857+0.00000j"),
    ("0.2,990", "xi=0.000000+0.000000j ln_xi=-764.85797+0.86281j"),
    ("-3,20", "xi=0.000186+0.000012j ln_xi=-8.58801+0.06181j"),
])
def test_xi_eval_log_where_xi_underflows(capsys, z, expected):
    # mpmath: ln xi_z(950i) = -734.1185721, ln xi_z(-3 + 20i) = -8.588005435 + 0.061807849i;
    # "--z -3,20" would read as a flag
    code, out, _ = run(capsys, "xi-eval", f"--z={z}")
    assert code == 0
    assert out == expected + "\n"


def test_xi_eval_missing_flag_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["xi-eval"])
    assert exc.value.code == 2


# ------------------------------------------------------- verify-table


def test_verify_table_default_nine_lines(capsys):
    code, out, _ = run(capsys, "verify-table")
    lines = out.strip().split("\n")
    assert code == 0
    assert len(lines) == 9
    assert all("agree=true" in line for line in lines)


def test_verify_table_rows_and_all_pairs(capsys):
    code, out, _ = run(capsys, "verify-table", "--rows", "1,9", "--all-pairs")
    assert code == 0
    assert len(out.strip().split("\n")) == 10


def test_verify_table_bad_rows(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-table", "--rows", "12"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("residual", "--z", "60,abc", "--t-max", "100"),
    ("xi-eval", "--z", "abc"),
    ("xi-eval", "--z", "1,2,3"),
    ("verify-table", "--rows", "1,x"),
    # a number that is not finite is malformed too
    ("xi-eval", "--z", "nan"),
    ("xi-eval", "--z", "inf"),
    ("cosh-demo", "--z", "1,nan"),
    ("residual", "--z", "nan", "--t-max", "100"),
    ("count", "--t-max", "nan"),
    ("omega", "--t-max", "100", "--step", "inf"),
    ("count", "--t-max", "50", "--tol", "count=nan"),
])
def test_malformed_list_says_what_was_expected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "expected" in captured.err
    assert "_parse_" not in captured.err


# ---------------------------------------------------------- cosh-demo


def test_cosh_demo_pass(capsys):
    code, out, _ = run(capsys, "cosh-demo", "--z", "2", "--terms", "40")
    assert code == 0
    assert "abs_diff=" in out


def test_cosh_demo_tolerance_failure(capsys):
    code, out, err = run(capsys, "cosh-demo", "--z", "1", "--terms", "2")
    assert code == 1
    assert err.startswith("FAIL:")
    assert "abs_diff=" in out  # data still emitted alongside the failure


@pytest.mark.parametrize("z", ["0.1,1e308", "1e308,1e308"])
def test_cosh_demo_refuses_overflowing_imaginary_part(capsys, z):
    # -2 n z would overflow: cmath.exp raises on an infinite imaginary part,
    # and the series turns NaN
    code, out, err = run(capsys, "cosh-demo", "--z", z)
    assert (code, out) == (1, "")
    assert err.startswith("error: cosh_demo requires 2 n Im(z) finite")


# ---------------------------------------------------------------- --jobs


@pytest.mark.parametrize("argv", [
    ("find-zeros", "--t-max", "15"),
    ("count", "--t-max", "50", "--zero-file", BUNDLED),
    ("predict", "--n", "3", "--zero-file", BUNDLED),
    ("residual", "--z", "50", "--t-max", "100", "--zero-file", BUNDLED),
    ("omega", "--t-max", "50", "--zero-file", BUNDLED),
    ("report", "--t-max", "50", "--zero-file", BUNDLED),
], ids=lambda argv: argv[0])
def test_jobs_is_a_usage_error(capsys, argv):
    # refining is serial, so there is no worker count to set
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--jobs", "2"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert "unrecognized arguments: --jobs 2" in err


def test_cli_import_leaves_out_multiprocessing():
    probe = ("import sys, zetaprod.cli; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, env=env)
    assert done.stdout == "[]\n"


# --------------------------------------------------- zero-file plumbing


def test_find_zeros_writes_file(capsys, tmp_path):
    out_file = tmp_path / "z30.txt"
    code, out, _ = run(capsys, "find-zeros", "--t-max", "30", "--out", str(out_file))
    assert code == 0
    assert "wrote 3 zeros" in out
    zeros = ZeroList.read(out_file)
    assert len(zeros) == 3 and zeros.t_max == 30.0


def test_count_uses_zero_file_flag(capsys, bundled_file):
    code, out, _ = run(capsys, "count", "--t-max", "50",
                       "--zero-file", str(bundled_file))
    assert code == 0
    assert out == "actual=10 formula=9.42278179 diff=0.5772182102\n"


def test_count_uses_env_var(capsys, monkeypatch, bundled_file):
    monkeypatch.setenv(ZERO_FILE_ENV, str(bundled_file))
    code, out, _ = run(capsys, "count", "--t-max", "100")
    assert code == 0
    assert out.startswith("actual=29 ")


def test_flag_beats_env(capsys, monkeypatch, tmp_path, bundled_file):
    # env points at a list that is too short; the flag must win
    short = tmp_path / "short.txt"
    short.write_text("# t_max=20\n14.134725\n", encoding="utf-8")
    monkeypatch.setenv(ZERO_FILE_ENV, str(short))
    code, out, _ = run(capsys, "count", "--t-max", "50",
                       "--zero-file", str(bundled_file))
    assert code == 0
    assert out.startswith("actual=10 ")
    code, _, err = run(capsys, "count", "--t-max", "50")
    assert code == 1
    assert "error:" in err


def test_insufficient_zero_file(capsys, bundled_file):
    code, _, err = run(capsys, "residual", "--z", "100", "--t-max", "500",
                       "--zero-file", str(bundled_file))
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("content,where", [
    (b"# t_max=50\n14.134725\nroot:x:0:0\n", "line 3: expected a number, got 'root:x:0:0'"),
    (b"14.134725\nnan\n", "line 2"),
    (b"\xff\xfe14.134725\n", "not UTF-8"),
    (b"# just a comment\n", "has no ordinates and no t_max header"),
], ids=["text", "nan", "binary", "comment-only"])
def test_malformed_zero_file(capsys, tmp_path, content, where):
    path = tmp_path / "zeros.txt"
    path.write_bytes(content)
    code, out, err = run(capsys, "count", "--t-max", "50", "--zero-file", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: zero file") and where in err


def test_predict_needs_as_many_zeros_as_asked(capsys, tmp_path):
    path = tmp_path / "three.txt"
    ZeroList(ZeroList.bundled().ordinates[:3], t_max=1000.0).write(path)
    code, out, err = run(capsys, "predict", "--n", "5", "--zero-file", str(path))
    assert (code, out) == (1, "")
    assert "need 5 zeros, zero source provides 3" in err


# ---------------------------------------------------------- CSV output


def test_predict_csv(capsys, bundled_file):
    code, out, _ = run(capsys, "predict", "--n", "10",
                       "--zero-file", str(bundled_file))
    lines = out.strip().split("\n")
    assert code == 0
    assert lines[0] == "n,predicted_k,actual_k,deviation"
    assert len(lines) == 11
    first = lines[1].split(",")
    assert first[0] == "1"
    assert abs(float(first[2]) - 14.134725) < 1e-6


def test_residual_csv(capsys, bundled_file):
    code, out, _ = run(capsys, "residual", "--z", "50", "--t-max", "100",
                       "--zero-file", str(bundled_file))
    lines = out.strip().split("\n")
    assert code == 0
    assert lines[0].startswith("# constant_derived=-0.04638812274")
    assert lines[1] == "z,residual,tail_estimate"
    z, value, estimate = (float(p) for p in lines[2].split(","))
    assert z == 50.0
    assert abs(value - (-0.0464)) <= 0.05


def test_omega_csv(capsys, bundled_file):
    code, out, _ = run(capsys, "omega", "--t-max", "100", "--step", "0.1",
                       "--zero-file", str(bundled_file))
    lines = out.strip().split("\n")
    assert code == 0
    assert lines[0] == "k,omega,running_mean"
    assert len(lines) > 800


@pytest.mark.parametrize("subcommand", ["omega", "report"])
def test_grid_too_fine_is_refused(capsys, bundled_file, subcommand):
    # 1e11 rows: refused from the row count alone, before any array is built
    code, out, err = run(capsys, subcommand, "--t-max", "100", "--step", "1e-9",
                         "--zero-file", str(bundled_file))
    assert (code, out) == (1, "")
    assert err.startswith("error: grid step") and "1,000,000 rows" in err


def test_report_csv(capsys, bundled_file):
    code, out, _ = run(capsys, "report", "--t-max", "100", "--step", "0.5",
                       "--zero-file", str(bundled_file))
    lines = out.strip().split("\n")
    assert code == 0
    assert lines[0] == "k,phi_smooth,phi_actual,phi_predicted"
    assert len(lines) == 201
    last = lines[-1].split(",")
    assert last[0] == "100"
    assert last[2] == "29"


def test_report_reads_predicted_staircase_off_phi(capsys, monkeypatch, bundled_file):
    def no_bisection(*args):
        raise AssertionError("report must read its staircase off phi")

    calls = []
    original = cli.phi_smooth
    monkeypatch.setattr(cli, "predict_zeros", no_bisection)
    monkeypatch.setattr(cli, "n_of_t", no_bisection)
    monkeypatch.setattr(cli, "phi_smooth", lambda k: calls.append(k) or original(k))
    code, _, _ = run(capsys, "report", "--t-max", "100", "--step", "0.5",
                     "--zero-file", str(bundled_file))
    assert code == 0
    assert len(calls) == 1


def test_report_predicted_column_matches_bisected_crossings(capsys, bundled_file):
    code, out, _ = run(capsys, "report", "--t-max", "100", "--step", "0.001",
                       "--zero-file", str(bundled_file))
    assert code == 0
    got = np.array([int(line.rsplit(",", 1)[1]) for line in out.splitlines()[1:]])
    # reference: on report's grid, count predict_zeros' crossings at or below k
    ks = 0.001 * np.arange(1, 100_001)
    ks = ks[ks <= 100 + 1e-12]
    crossings = predict_zeros(math.ceil(phi_smooth(100.0)) + 2)
    np.testing.assert_array_equal(got, np.searchsorted(crossings, ks, side="right"))


def test_report_deterministic(capsys, bundled_file, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(capsys, "report", "--t-max", "60", "--step", "0.5",
                         "--zero-file", str(bundled_file), "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_csv_out_file(capsys, bundled_file, tmp_path):
    path = tmp_path / "predict.csv"
    code, out, _ = run(capsys, "predict", "--n", "5",
                       "--zero-file", str(bundled_file), "--out", str(path))
    assert code == 0
    assert out == ""
    text = path.read_text(encoding="utf-8")
    assert text.startswith("n,predicted_k,actual_k,deviation\n")


@pytest.mark.parametrize("argv", [("count", "--t-max", "50"), ("find-zeros", "--t-max", "1000")],
                         ids=["count", "find-zeros"])
def test_out_path_that_cannot_be_opened(capsys, monkeypatch, tmp_path, argv):
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned before opening --out")

    monkeypatch.setattr(cli, "find_zeros", no_scan)
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "missing" / "x.csv"))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "No such file" in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_find_zeros_reports_a_write_only_once_the_file_has_closed(capsys):
    # the zero file fits the write buffer, so the full device refuses it only
    # when --out is flushed on closing: no "wrote" line, one error line
    code, out, err = run(capsys, "find-zeros", "--t-max", "20", "--out", "/dev/full")
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "No space left" in err and err.count("\n") == 1


# ------------------------------------------------------ tolerances


def test_tol_override_forces_failure(capsys, bundled_file):
    code, out, err = run(capsys, "count", "--t-max", "50",
                         "--zero-file", str(bundled_file),
                         "--tol", "count=0.1")
    assert code == 1
    assert err.startswith("FAIL:")


def test_report_staircase_tolerance_binds(capsys, bundled_file):
    # below 100 the predicted staircase is at most one zero off the actual one
    code, _, err = run(capsys, "report", "--t-max", "100", "--step", "0.5",
                       "--zero-file", str(bundled_file), "--tol", "staircase=0.5")
    assert code == 1
    assert "FAIL: actual and predicted staircases differ by 1 > 0.5" in err


def test_tol_unknown_name(capsys, bundled_file):
    code, _, err = run(capsys, "count", "--t-max", "50",
                       "--zero-file", str(bundled_file),
                       "--tol", "nope=1")
    assert code == 1
    assert "unknown tolerance" in err


def test_tol_name_from_another_subcommand(capsys, bundled_file):
    code, out, err = run(capsys, "count", "--t-max", "50",
                         "--zero-file", str(bundled_file),
                         "--tol", "residual=1e-30", "--tol", "predict-max=1e-30")
    assert code == 1
    assert out == ""
    assert "error: unknown tolerance 'residual'; known: count" in err


@pytest.mark.parametrize("argv", [
    ("xi-eval", "--z", "0"),
    ("verify-table", "--rows", "1"),
    ("find-zeros", "--t-max", "15"),
])
def test_tol_rejected_where_nothing_is_checked(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--tol", "cosh=1e-30"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_every_tolerance_is_settable_once():
    # 7 named tolerances, each on the one subcommand that checks it
    sub = next(a for a in cli._build_parser()._actions if a.dest == "subcommand")
    owners = {}
    for name, sp in sub.choices.items():
        for tol in sp.get_default("tol_defaults") or {}:
            owners.setdefault(tol, []).append(name)
    assert owners == {
        "cosh": ["cosh-demo"], "count": ["count"], "predict-mean": ["predict"],
        "predict-max": ["predict"], "residual": ["residual"],
        "omega-mean": ["omega"], "staircase": ["report"],
    }


def test_residual_tolerance_binds(capsys, bundled_file):
    # |residual - constant| at z=50 is 6.4e-4, the tail estimate 0.05
    code, out, err = run(capsys, "residual", "--z", "50", "--t-max", "100",
                         "--zero-file", str(bundled_file), "--tol", "residual=1e-4")
    assert code == 1
    assert out.splitlines()[2].startswith("50,")
    assert "+- 0.0001" in err
    code, _, _ = run(capsys, "residual", "--z", "50", "--t-max", "100",
                     "--zero-file", str(bundled_file), "--tol", "residual=1e-3")
    assert code == 0


def test_one_parser_carries_nothing_from_call_to_call(capsys, tmp_path):
    # main parses every call with the one parser _build_parser caches: a
    # --tol, an --out or a tolerance table left by one call must not reach
    # the next.  |residual - constant| at z=50 is 6.4e-4, inside the default
    # 0.02 and outside 1e-4.
    parser = cli._build_parser()
    assert cli._build_parser() is parser
    sub = next(a for a in parser._actions if a.dest == "subcommand")
    defaults = {name: dict(sp.get_default("tol_defaults") or {}) for name, sp in sub.choices.items()}
    residual = ("residual", "--z", "50", "--t-max", "100", "--zero-file", BUNDLED)
    code, _, err = run(capsys, *residual, "--tol", "residual=1e-4")
    assert code == 1 and "+- 0.0001" in err
    code, out, err = run(capsys, *residual)
    assert code == 0 and err == "" and out.splitlines()[2].startswith("50,")
    out_file = tmp_path / "z30.txt"
    code, out, _ = run(capsys, "find-zeros", "--t-max", "30", "--out", str(out_file))
    assert code == 0 and out == f"wrote 3 zeros to {out_file}\n"
    code, out, _ = run(capsys, "find-zeros", "--t-max", "30")
    assert code == 0 and "wrote" not in out and out == out_file.read_text(encoding="utf-8")
    assert {name: sp.get_default("tol_defaults") or {} for name, sp in sub.choices.items()} == defaults
    assert sub.choices["residual"]._option_string_actions["--tol"].default == []


def _nan_asymptotic(monkeypatch):
    original = cli.log_xi_asymptotic
    monkeypatch.setattr(cli, "log_xi_asymptotic",
                        lambda z: dataclasses.replace(original(z), constant=math.nan))


def _nan_cosh(monkeypatch):
    original = cli.cosh_demo
    monkeypatch.setattr(cli, "cosh_demo",
                        lambda z, n: original(z, n)._replace(reconstructed=complex(math.nan)))


def _nan_prediction(monkeypatch):
    original = cli.predict_zeros
    monkeypatch.setattr(cli, "predict_zeros",
                        lambda n: np.where(np.arange(n) == 1, math.nan, original(n)))


def _nan_running_mean(monkeypatch):
    original = cli.omega_stats

    def last_mean_nan(*args, **kwargs):
        stats = original(*args, **kwargs)
        stats.running_mean[-1, 1] = math.nan
        return stats

    monkeypatch.setattr(cli, "omega_stats", last_mean_nan)


@pytest.mark.parametrize("argv,push_nan,failures", [
    (("xi-eval", "--z", "12,3"), _nan_asymptotic, ["asymptotic deviation nan"]),
    (("cosh-demo", "--z", "2"), _nan_cosh, ["|reconstructed - exact| = nan"]),
    (("count", "--t-max", "50", "--zero-file", BUNDLED),
     lambda patch: patch.setattr(cli, "n_of_t", lambda t: math.nan),
     ["|actual - formula| = nan"]),
    (("predict", "--n", "5", "--zero-file", BUNDLED), _nan_prediction,
     ["mean |deviation| = nan", "max |deviation| = nan"]),
    (("residual", "--z", "50", "--t-max", "100", "--zero-file", BUNDLED),
     lambda patch: patch.setattr(zerodist, "t5", lambda z: complex(math.nan)),
     ["residual at z=50 is nan"]),
    (("omega", "--t-max", "50", "--zero-file", BUNDLED), _nan_running_mean,
     ["|running mean| at t_max = nan"]),
], ids=["xi-eval", "cosh", "count", "predict", "residual", "omega-mean"])
def test_nan_fails_every_check(capsys, monkeypatch, argv, push_nan, failures):
    # NaN compares false both ways: a check written as "fail if x > tol" passes it
    push_nan(monkeypatch)
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("FAIL: ")
    assert all(failure in err for failure in failures), err


def test_predict_checks_source_before_building_arrays(capsys, monkeypatch, bundled_file):
    original = cli.predict_zeros

    def bounded(n_max):
        assert n_max <= 29, "predict_zeros called past the zero source"
        return original(n_max)

    monkeypatch.setattr(cli, "predict_zeros", bounded)
    code, out, err = run(capsys, "predict", "--n", "1000000000000",
                         "--zero-file", str(bundled_file))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_tol_malformed_usage_error(capsys, bundled_file):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--t-max", "50", "--zero-file", str(bundled_file),
              "--tol", "count"])
    assert exc.value.code == 2


def test_t_max_out_of_range(capsys, bundled_file):
    # above 1000, or at or below the curve root a where the formula is negative
    for t_max in ("1200", "5", repr(zerodist.A_ROOT)):
        code, out, err = run(capsys, "count", "--t-max", t_max,
                             "--zero-file", str(bundled_file))
        assert code == 1
        assert out == ""
        assert "t_max" in err


def test_residual_z_below_domain(capsys, bundled_file):
    code, _, err = run(capsys, "residual", "--z", "10", "--t-max", "100",
                       "--zero-file", str(bundled_file))
    assert code == 1
    assert "error:" in err


def test_residual_checks_every_z_before_computing(capsys, monkeypatch, bundled_file):
    calls = []
    original = zerodist.residual
    monkeypatch.setattr(zerodist, "residual", lambda *a: calls.append(a) or original(*a))
    code, out, err = run(capsys, "residual", "--z", "50,30", "--t-max", "100",
                         "--zero-file", str(bundled_file))
    assert code == 1
    assert out == ""
    assert "error: residual requires real z >= 50" in err
    assert calls == []



# ------------------------------------------------- partial output on error


def _fail_at_second_call(monkeypatch, owner, name):
    original = getattr(owner, name)
    calls = []

    def second_fails(*args):
        calls.append(args)
        if len(calls) == 2:
            raise ConvergenceError("forced at the second call")
        return original(*args)

    monkeypatch.setattr(owner, name, second_fails)


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
@pytest.mark.parametrize("argv,owner,name,done", [
    (("verify-table", "--rows", "1,2"), cli, "verify_table_row", ["row=1 "]),
    (("residual", "--z", "50,50", "--t-max", "100"), zerodist, "residual",
     ["# constant_derived=", "z,residual,tail_estimate", "50,"]),
], ids=["verify-table", "residual"])
def test_rows_done_before_an_error_are_kept(capsys, monkeypatch, tmp_path, bundled_file,
                                            argv, owner, name, done, to_file):
    _fail_at_second_call(monkeypatch, owner, name)
    if argv[0] == "residual":
        argv += ("--zero-file", str(bundled_file))
    path = tmp_path / "partial.csv"
    if to_file:
        argv += ("--out", str(path))
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: forced at the second call")
    if to_file:
        assert out == ""
        out = path.read_text(encoding="utf-8")
    lines = out.split("\n")
    assert lines[-1] == "" and len(lines) == len(done) + 1
    assert all(line.startswith(prefix) for line, prefix in zip(lines, done))
