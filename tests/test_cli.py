"""Command-line entry points and exit-code contract."""

import os
import re

import pytest

from parabolab import cli, experiments
from parabolab.cli import run

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
DEMO = os.path.join(CONFIGS, "demo.cfg")
SMALL = os.path.join(CONFIGS, "sweep_small.cfg")

# What `diagnose --check` printed on the demo, and `sweep` on two eps of
# sweep_small, before the CLI and the sweep shared one diagnostic
# pipeline; the pipeline must keep printing the same numbers.
DEMO_PRINTED = {
    "sup |phi|": (0.521224271566,),
    "sup |phi0|": (0.299277709001,),
    "f_norm_crit": (3.36656827562,),
    "f_norm_q": (5.0008575134,),
    "log_term": (1.79190237792,),
    "implied_c": (0.0236135220149,),
    "classical_ratio": (0.104226979107,),
    "beta0": (1.0,),
    "alpha0": (1.5,),
    "r": (2.66666666667,),
    "alpha": (1.0,),
    "final_exponent": (5.0,),
    "scale": (3.36656827562,),
    "l1 lhs/rhs": (0.0607556779984, 0.567760669343),
    "interp lhs/rhs": (0.813669321882, 0.863395164055),
    "chi": (1.5,),
    "ladder rungs": (13.0, 345.990234375),
    "extrapolated sup": (1.15516912468,),
    "measured sup": (1.16116942759,),
}
SMALL_PRINTED_ROWS = [
    (0.353553, 7.440097389, 19.4628453, 0.2558289842, 0.008556480739, 0.1484140231,
     0.009386996204, 0.1778590957),
    (0.25, 7.440024, 27.52463373, 0.274502474, 0.008480198054, 0.1470728344,
     0.007093540867, 0.08893698691),
]


def _numbers(text):
    return tuple(float(tok) for tok in re.findall(r"-?\d[\d.e+-]*", text))


def test_ledger_prints_reference_row(capsys):
    assert run(["ledger", "--N", "2", "--q", "4"]) == 0
    out = capsys.readouterr().out
    assert "chi" in out and "1.5" in out
    assert "final" in out
    assert "5" in out


def test_ledger_rejects_critical_exponent():
    assert run(["ledger", "--N", "2", "--q", "2"]) == 2


def test_solve_reports_and_exports(tmp_path, capsys):
    assert run(["solve", "--config", DEMO, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "sup" in out
    assert os.path.exists(os.path.join(tmp_path, "solution.txt"))


def test_diagnose_check_passes_on_the_demo(capsys):
    assert run(["diagnose", "--config", DEMO, "--check"]) == 0
    out = capsys.readouterr().out
    assert "check l1: PASS" in out
    assert "check interpolation: PASS" in out
    assert "check ladder_monotone: PASS" in out
    assert "check data_contraction: PASS" in out
    printed = {}
    for line in out.splitlines():
        if " = " in line:
            name, value = line.split(" = ", 1)
            printed[name.strip()] = _numbers(value)
    assert printed.keys() == DEMO_PRINTED.keys()
    for name, want in DEMO_PRINTED.items():
        assert printed[name] == pytest.approx(want, rel=1e-9), name


def test_diagnose_writes_trace_and_report(tmp_path):
    assert run(["diagnose", "--config", DEMO, "--out", str(tmp_path)]) == 0
    assert os.path.exists(os.path.join(tmp_path, "trace.csv"))
    assert os.path.exists(os.path.join(tmp_path, "report.txt"))


def test_sweep_writes_all_artifacts(tmp_path, capsys):
    # two rows cannot be fitted, so --check fails (exit 3) after every
    # artifact and row has been written
    code = run(["sweep", "--config", SMALL, "--out", str(tmp_path),
                "--eps-list", "0.3535533905932738,0.25", "--check"])
    assert code == 3
    for name in ("sweep.csv", "sweep.svg", "trace.csv", "ledger.txt"):
        assert os.path.exists(os.path.join(tmp_path, name)), name
    header = open(os.path.join(tmp_path, "sweep.csv")).readline().strip()
    assert header == "eps,f_norm_crit,f_norm_q,phi_sup,implied_c,exp_moment,l1_lhs,l1_rhs"
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "rows: 2   alpha = 1"
    for line, want in zip(lines[2:4], SMALL_PRINTED_ROWS):
        assert _numbers(line) == pytest.approx(want, rel=1e-9)
    assert "check fit_r_squared: FAIL" in lines


def test_missing_config_is_a_usage_error():
    assert run(["solve", "--config", "/nonexistent/path.cfg"]) == 1


F_LINE = "f = sine amplitude=12.0 decay=1.0"


# the four forcing.f values once raised IndexError, TypeError, TypeError,
# and (a misspelt parameter) ran silently with amplitude 1; [solver] takes
# tol only, so a file that sets another key does not run silently without it;
# a nan or inf entry of A once passed the hypothesis check and stalled CG (exit 2)
@pytest.mark.parametrize("line, value, key", [("T = 0.5", "T = abc", "grid.T"),
                                              ("tol = 1e-10", "tol = 1e-1O", "solver.tol"),
                                              ("nx = 32,32", "nx = 32.9,32", "grid.nx"),
                                              ("nx = 32,32", "nx = 32,,32", "grid.nx"),
                                              (F_LINE, "f = ", "forcing.f"),
                                              (F_LINE, "f = sine amplitude= decay=1.0",
                                               "forcing.f"),
                                              (F_LINE, "f = sine amplitude=12,3 decay=1.0",
                                               "forcing.f"),
                                              (F_LINE, "f = sine amplitud=12.0 decay=1.0",
                                               "forcing.f"),
                                              ("tol = 1e-10", "tol = 1e-10\nmax_iters = 100",
                                               "solver.max_iters"),
                                              ("\na = 1.0", "\na = nan", "axx is not finite: nan"),
                                              ("\na = 1.0", "\naxx = inf",
                                               "axx is not finite: inf"),
                                              ("T = 0.5", "T = 0.5%", "grid.T"),
                                              ("T = 0.5", "T = inf", "final time must be "
                                               "positive and finite, got inf"),
                                              ("box = 0,1 0,1", "box = 0,1 0,inf",
                                               "axis 1: box requires finite lo < hi"),
                                              ("phi0 = sine amplitude=0.3",
                                               "phi0 = sine amplitude=0.3 decay=1.0",
                                               "forcing.phi0 must not vary in time")],
                         ids=["T", "tol", "nx", "nx_empty_component", "f_empty", "f_no_value",
                              "f_vector", "f_unknown_parameter", "solver_unknown_key",
                              "a_nan", "axx_inf", "T_percent", "T_inf", "box_inf",
                              "phi0_decay"])
def test_malformed_config_number_is_a_configuration_error(tmp_path, capsys, line, value, key):
    text = open(DEMO).read()
    assert line in text
    path = os.path.join(tmp_path, "bad.cfg")
    with open(path, "w") as fh:
        fh.write(text.replace(line, value))
    assert run(["solve", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and key in err


def test_unknown_flag_is_a_usage_error():
    assert run(["solve", "--config", DEMO, "--frobnicate"]) == 1


def test_threads_is_a_sweep_only_flag():
    assert run(["diagnose", "--config", DEMO, "--threads", "2"]) == 1


# solve once took --check, printed no check line and exited 0
def test_check_is_not_a_solve_flag(capsys):
    assert run(["solve", "--config", DEMO, "--check"]) == 1
    assert "--check" in capsys.readouterr().err


def test_help_exits_clean(capsys):
    assert run(["--help"]) == 0
    assert "sweep" in capsys.readouterr().out


def test_sweep_without_sweep_section_fails_cleanly():
    assert run(["sweep", "--config", DEMO]) == 1


# 0.25,abc was once a bare ValueError out of run; the empty components
# were once dropped, so 0.25,,0.5 ran a two-eps sweep
@pytest.mark.parametrize("eps_list", ["0.25,abc", "0.25,,0.5", "0.25,"])
def test_malformed_eps_list_is_a_configuration_error(tmp_path, capsys, eps_list):
    assert run(["sweep", "--config", SMALL, "--eps-list", eps_list,
                "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "--eps-list" in err


def _no_work(*args, **kwargs):
    raise AssertionError("a solve or sweep ran")


# --out naming a regular file once raised FileExistsError out of run,
# and sweep did so only after the whole sweep
@pytest.mark.parametrize("argv", [["solve", "--config", DEMO], ["diagnose", "--config", DEMO],
                                  ["ledger", "--N", "2", "--q", "4"],
                                  ["sweep", "--config", SMALL]],
                         ids=["solve", "diagnose", "ledger", "sweep"])
def test_out_naming_a_file_fails_before_any_work(tmp_path, capsys, monkeypatch, argv):
    for name in ("solve_ibvp", "solve_split", "run_sweep"):
        monkeypatch.setattr(cli, name, _no_work)
    taken = os.path.join(tmp_path, "taken")
    open(taken, "w").close()
    assert run(argv + ["--out", taken]) == 1
    assert capsys.readouterr().err.startswith("configuration error: ")


# both once ran the sweep serially with exit 0
@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_is_a_configuration_error(tmp_path, capsys, threads):
    assert run(["sweep", "--config", SMALL, "--threads", threads, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "threads" in err


# each once failed only in diagnose, after the solve (sweep: every probe)
@pytest.mark.parametrize("argv, edit, key", [
    (["diagnose", "--beta0", "-1"], {}, "beta0"),
    (["diagnose"], {"i_max = 12": "i_max = -1"}, "i_max"),
    (["sweep", "--threads", "2"], {"i_max = 12": "i_max = -1"}, "i_max"),
    (["sweep"], {"beta0 = 1.0": "beta0 = 0.0"}, "beta0")],
    ids=["diagnose_beta0", "diagnose_i_max", "sweep_i_max", "sweep_beta0"])
def test_bad_ladder_settings_fail_before_any_solve(tmp_path, capsys, monkeypatch,
                                                   argv, edit, key):
    monkeypatch.setattr(cli, "solve_split", _no_work)
    monkeypatch.setattr(experiments, "solve_split", _no_work)
    text = open(SMALL).read()
    for line, value in edit.items():
        assert line in text
        text = text.replace(line, value)
    path = os.path.join(tmp_path, "bad.cfg")
    with open(path, "w") as fh:
        fh.write(text)
    assert run(argv + ["--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


# each once solved the first probe (diagnose: the problem) and then exited 2
# from trace with "every ladder exponent exceeds the cap"
@pytest.mark.parametrize("argv, config, edit", [
    (["sweep"], SMALL, {"beta0 = 1.0": "beta0 = inf"}),
    (["sweep"], SMALL, {"beta0 = 1.0": "beta0 = 1e300"}),
    (["diagnose", "--beta0", "1e300"], DEMO, {})],
    ids=["sweep_beta0_inf", "sweep_beta0_1e300", "diagnose_beta0_1e300"])
def test_a_ladder_with_no_rung_fails_before_any_solve(tmp_path, capsys, monkeypatch,
                                                      argv, config, edit):
    calls = []

    def counting(real):
        def wrapped(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)
        return wrapped

    for module in (cli, experiments):
        monkeypatch.setattr(module, "solve_split", counting(module.solve_split))
    text = open(config).read()
    for line, value in edit.items():
        assert line in text
        text = text.replace(line, value)
    path = os.path.join(tmp_path, "bad.cfg")
    with open(path, "w") as fh:
        fh.write(text)
    assert run(argv + ["--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: beta0 = ") and "leaves no ladder rung" in err
    assert calls == []


# each once ran with exit 0: a nan bump centre passed every range test and
# gave four rows of zeros, and moment_cap = -1 picked alpha = 2^-8; a nan
# amplitude or gamma exited 1 naming forcing.f, 1e308 and inf after a
# numpy RuntimeWarning (an error under this suite's warning filter), and
# gamma = 400 overflowed eps^-gamma at eps = 1/8 with an OverflowError
@pytest.mark.parametrize("edit, key", [({"t0 = 0.13": "t0 = nan"}, "nan"),
                                       ({"x0 = 0.375,0.375": "x0 = nan,0.375"}, "nan"),
                                       ({"moment_cap = 10.0": "moment_cap = -1"},
                                        "sweep.moment_cap"),
                                       ({"moment_cap = 10.0": "moment_cap = inf"},
                                        "sweep.moment_cap"),
                                       ({"amplitude = 24.0": "amplitude = nan"},
                                        "sweep.amplitude"),
                                       ({"gamma = 2.0": "gamma = nan"}, "sweep.gamma"),
                                       ({"amplitude = 24.0": "amplitude = 1e308"},
                                        "sweep.amplitude"),
                                       ({"gamma = 2.0": "gamma = inf"}, "sweep.gamma"),
                                       ({"gamma = 2.0": "gamma = 400"}, "sweep.gamma")],
                         ids=["t0_nan", "x0_nan", "moment_cap_negative", "moment_cap_inf",
                              "amplitude_nan", "gamma_nan", "amplitude_overflow", "gamma_inf",
                              "gamma_overflow"])
def test_bad_sweep_settings_fail_before_any_solve(tmp_path, capsys, monkeypatch, edit, key):
    monkeypatch.setattr(experiments, "solve_split", _no_work)
    text = open(SMALL).read()
    for line, value in edit.items():
        assert line in text
        text = text.replace(line, value)
    path = os.path.join(tmp_path, "bad.cfg")
    with open(path, "w") as fh:
        fh.write(text)
    assert run(["sweep", "--config", path, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and key in err


# an --eps-list value passes the same peak check as the config's eps
def test_an_overflowing_eps_list_peak_fails_before_any_solve(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(experiments, "solve_split", _no_work)
    path = os.path.join(tmp_path, "bad.cfg")
    with open(path, "w") as fh:
        fh.write(open(SMALL).read().replace("eps = 0.3535533905932738,0.25,0.1767766952966369,"
                                            "0.125", "eps = 0.25").replace("gamma = 2.0",
                                                                           "gamma = 400"))
    assert run(["sweep", "--config", path, "--out", str(tmp_path),
                "--eps-list", "0.25,0.125"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "sweep.gamma" in err
    assert "eps = 0.125" in err


# diagnose once solved this with an all-zero forcing: sup |phi| = 0, exit 0
def test_nan_bump_forcing_is_a_configuration_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "solve_split", _no_work)
    path = os.path.join(tmp_path, "bad.cfg")
    with open(path, "w") as fh:
        fh.write("[grid]\nbox = 0,1 0,1\nnx = 16,16\nT = 0.5\nnt = 64\n"
                 "[forcing]\nf = bump eps=0.25 t0=nan\n")
    assert run(["diagnose", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "nan" in err


# diagnose once ended in an OverflowError traceback: the peak 0.25^-600 of
# a bump datum passed no check before it was sampled
def test_an_overflowing_bump_datum_fails_before_any_solve(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "solve_split", _no_work)
    path = os.path.join(tmp_path, "bad.cfg")
    with open(path, "w") as fh:
        fh.write("[grid]\nbox = 0,1 0,1\nnx = 16,16\nT = 0.5\nnt = 64\n"
                 "[forcing]\nf = bump eps=0.25 gamma=600\n")
    assert run(["diagnose", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "forcing.f" in err


# the peak 24 * 0.354^-400, near 4e180, is finite, but b.b overflowed at
# step 3: numpy warned, and CG spent all 5,760 iterations on a nan residual
def test_a_right_side_whose_norm_overflows_skips_its_row(tmp_path, capsys):
    text = open(SMALL).read()
    assert "gamma = 2.0" in text
    path = os.path.join(tmp_path, "huge.cfg")
    with open(path, "w") as fh:
        fh.write(text.replace("gamma = 2.0", "gamma = 400"))
    assert run(["sweep", "--config", path, "--out", str(tmp_path),
                "--eps-list", "0.3535533905932738"]) == 0
    captured = capsys.readouterr()
    assert ("skipped eps = 0.353553: step 3: the right side's 2-norm overflows a double\n"
            in captured.out)
    assert captured.err == ""


# i_max = 2000 once raised OverflowError building rungs above the cap
def test_sweep_with_a_huge_i_max_matches_the_capped_ladder(tmp_path):
    text = open(SMALL).read()
    assert "i_max = 12" in text
    outputs = []
    for i_max in ("12", "2000"):
        path = os.path.join(tmp_path, f"i_max_{i_max}.cfg")
        with open(path, "w") as fh:
            fh.write(text.replace("i_max = 12", f"i_max = {i_max}"))
        out = os.path.join(tmp_path, i_max)
        assert run(["sweep", "--config", path, "--out", out,
                    "--eps-list", "0.3535533905932738,0.25"]) == 0
        with open(os.path.join(out, "sweep.csv")) as fh:
            csv = fh.read()
        with open(os.path.join(out, "trace.csv")) as fh:
            truncated = "# truncated = True" in fh.read()
        outputs.append((csv, truncated))
    assert outputs[1][0] == outputs[0][0]
    assert outputs[1][1] and not outputs[0][1]


# both once exited 2 naming beta0: the hypotheses were checked only inside each solve
@pytest.mark.parametrize("command", ["sweep", "diagnose"])
def test_inadmissible_data_fail_before_the_ladder_check(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(cli, "solve_split", _no_work)
    monkeypatch.setattr(experiments, "solve_split", _no_work)
    text = open(SMALL).read()
    for line, value in {"q = 4.0": "q = 2.0", "beta0 = 1.0": "beta0 = 0.0"}.items():
        assert line in text
        text = text.replace(line, value)
    path = os.path.join(tmp_path, "bad.cfg")
    with open(path, "w") as fh:
        fh.write(text)
    assert run([command, "--config", path, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert "q must exceed the critical exponent 1 + N/2 = 2.0, got 2.0" in err
    assert "beta0" not in err


# the witness point was once computed but never printed
def test_negative_omega_names_its_witness_point(tmp_path, capsys):
    path = os.path.join(tmp_path, "bad.cfg")
    with open(path, "w") as fh:
        fh.write("[grid]\nbox = 0,1 0,1\nnx = 5,5\nT = 0.5\nnt = 4\n"
                 "[coefficients]\nomega = sine amplitude=-2.0\n")
    assert run(["solve", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert "omega must be nonnegative, reaches -2.0 at point (0.5, 0.5)" in err


# a non-finite sample once exited 2, as a numerical failure, without naming its key
def test_non_finite_sampled_coefficient_is_a_configuration_error(tmp_path, capsys):
    path = os.path.join(tmp_path, "bad.cfg")
    with open(path, "w") as fh:
        fh.write("[grid]\nbox = 0,1 0,1\nnx = 9,9\nT = 0.5\nnt = 4\n[coefficients]\n"
                 "omega = radial amplitude=1.0 center=0.5,0.5 exponent=-1.0\n")
    assert run(["solve", "--config", path]) == 1
    assert capsys.readouterr().err == ("configuration error: coefficients.omega: non-finite "
                                       "field value at point (0.5, 0.5)\n")


# this file once loaded with lambda = 1, no cross term, omega = 0, phi0 = 0
# and tol = 1e-10, and solve exited 0; each unknown name is refused in turn
UNKNOWN_KEYS = ("[grid]\nbox = 0,1\nnx = 8\nT = 0.5\nnt = 4\n"
                "[coefficients]\naxy = 0.5\nlamda = 0.5\nomegaa = -3\n"
                "[forcing]\nphi_0 = sine amplitude=0.3\n"
                "[solvr]\ntol = 1e-3\n")


def test_unknown_config_keys_and_sections_are_refused(tmp_path, capsys):
    path = os.path.join(tmp_path, "bad.cfg")
    text = UNKNOWN_KEYS
    for line, name in [("axy = 0.5", "coefficients.axy"), ("lamda = 0.5", "coefficients.lamda"),
                       ("omegaa = -3", "coefficients.omegaa"),
                       ("phi_0 = sine amplitude=0.3", "forcing.phi_0"),
                       ("[solvr]\ntol = 1e-3", "[solvr]: unknown section")]:
        with open(path, "w") as fh:
            fh.write(text)
        assert run(["solve", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and name in err
        text = text.replace(line + "\n", "")
    with open(path, "w") as fh:
        fh.write(text)
    assert run(["solve", "--config", path]) == 0
