import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypercalc.cli as cli
import hypercalc.corpus as cp
import hypercalc.expr as ex
import hypercalc.hyper as hy


def run(argv, tmp_path, extra=()):
    out = tmp_path / "reports"
    code = cli.main(list(argv) + ["--output", str(out)] + list(extra))
    return code, out


def test_every_operation_mapped_exactly_once():
    seen = {}
    for sub, ops in cli.OPS_BY_SUBCOMMAND.items():
        assert sub in cli.HANDLERS
        for op in ops:
            assert op not in seen, f"{op} mapped to both {seen[op]} and {sub}"
            seen[op] = sub
    assert set(cli.HANDLERS) == set(cli.OPS_BY_SUBCOMMAND)
    # every public callable named in the map resolves to a real attribute
    import importlib
    for op in seen:
        mod_name, rest = op.split(".", 1)
        obj = importlib.import_module(f"hypercalc.{mod_name}")
        for part in rest.split("."):
            obj = getattr(obj, part)
        assert callable(obj)


def _csv_rows(path):
    import csv
    with open(path) as fh:
        return list(csv.reader(fh))


def test_pair_subcommand_writes_report(tmp_path):
    code, out = run(["pair", "--label", "delta", "--test", "gauss"], tmp_path)
    assert code == 0
    rec = json.loads((out / "pair.json").read_text())
    assert rec["label"].startswith("delta")
    rows = _csv_rows(out / "pair.csv")
    assert rows[0] == ["test", "re", "im", "err_bound"]
    assert abs(float(rows[1][1]) - 1.0) < 1e-10


def test_expand_reports_known_coefficient(tmp_path):
    code, out = run(["expand", "--label", "sech", "--order", "2"], tmp_path)
    assert code == 0
    rec = json.loads((out / "expand.json").read_text())
    c2 = rec["coefficients"][2]
    assert abs(c2[0] - math.pi ** 3 / 8.0) < 1e-8


def test_report_determinism(tmp_path):
    a1 = cli.main(["ode-solve", "--op", "t^2*D-1", "--basis", "delta",
                   "--order", "12", "--output", str(tmp_path / "r1")])
    a2 = cli.main(["ode-solve", "--op", "t^2*D-1", "--basis", "delta",
                   "--order", "12", "--output", str(tmp_path / "r2")])
    assert a1 == 0 and a2 == 0
    for suffix in ("json", "csv"):
        b1 = (tmp_path / "r1" / f"ode_solve.{suffix}").read_bytes()
        b2 = (tmp_path / "r2" / f"ode_solve.{suffix}").read_bytes()
        assert b1 == b2


def test_usage_errors_exit_2(tmp_path, capsys):
    assert cli.main(["no-such-command"]) == 2
    assert cli.main(["pair", "--label", "nonexistent",
                     "--output", str(tmp_path / "x")]) == 2
    assert cli.main(["pair", "--abs-tol", "-1",
                     "--output", str(tmp_path / "y")]) == 2
    # an option the subcommand does not read, a missing corpus file and a
    # malformed expression
    capsys.readouterr()
    assert cli.main(["moments", "--abs-tol", "1e-2",
                     "--output", str(tmp_path / "z")]) == 2
    assert "unrecognized arguments: --abs-tol" in capsys.readouterr().err
    assert cli.main(["pair", "--input", str(tmp_path / "missing.json"),
                     "--output", str(tmp_path / "z")]) == 2
    assert cli.main(["invfourier", "--field", "exp((",
                     "--output", str(tmp_path / "z")]) == 2
    # a corpus file whose growth record is not a growth class
    bad = tmp_path / "bad.json"
    for growth in ({"kind": "bogus"}, {}, {"kind": "exp_decay", "rate": 0},
                   {"kind": "tempered", "gamma": "a"}):
        bad.write_text(json.dumps([{"label": "f", "f_plus": "sech(z)", "f_minus": "0",
                                    "growth": growth}]))
        capsys.readouterr()
        assert cli.main(["pair", "--input", str(bad), "--label", "f",
                         "--output", str(tmp_path / "z")]) == 2
        assert "input: corpus[0]: growth: " in capsys.readouterr().err
    assert not (tmp_path / "z").exists()


def test_failed_check_exits_1(tmp_path):
    moments = ",".join(str(float(math.factorial(k)) ** 2) for k in range(12))
    code, out = run(["support-check", "--moments", moments, "--S", "1.0"],
                    tmp_path)
    assert code == 1
    rec = json.loads((out / "support_check.json").read_text())
    assert "diverges" in rec["diagnosis"]


def test_convergence_error_exits_1(tmp_path, capsys):
    # standardize's G needs more than its 1024-panel cap this near the axis
    code, _ = run(["pair", "--label", "sech", "--standardize", "--eta", "0.01"],
                  tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "1024 panels" in err


def test_config_file_merges_under_flags(tmp_path):
    cfgfile = tmp_path / "job.json"
    cfgfile.write_text(json.dumps({"label": "delta", "test": "gauss",
                                   "eta": 0.25}))
    code, out = run(["pair", "--config", str(cfgfile)], tmp_path)
    assert code == 0
    rows = _csv_rows(out / "pair.csv")
    assert len(rows) == 2  # header + the single test named in the file
    assert rows[1][0] == "gauss"
    assert abs(float(rows[1][1]) - 1.0) < 1e-10
    # explicit flag wins over the file value
    code2, out2 = run(["pair", "--config", str(cfgfile), "--test",
                       "affine_gauss"], tmp_path)
    assert code2 == 0
    rows2 = _csv_rows(out2 / "pair.csv")
    assert rows2[1][0] == "affine_gauss"


def test_config_validation_messages():
    with pytest.raises(cli.UsageError) as exc:
        cli.resolve_options("pair", {"eta": -1.0, "abs_tol": 0.0})
    msg = str(exc.value)
    assert "eta: expected a positive number" in msg
    assert "abs_tol: expected a positive number" in msg


def test_every_subcommand_runs_its_defaults_and_reads_every_option(
        tmp_path, monkeypatch):
    resolved = {}
    resolve = cli.resolve_options

    def spy(command, given):
        resolved[command] = resolve(command, given)
        return resolved[command]

    monkeypatch.setattr(cli, "resolve_options", spy)
    # test_acceptance runs the battery itself; here verify-all's is empty,
    # so only its option handling runs
    monkeypatch.setattr(cli.ac, "run_all", lambda seed, echo=None: [])
    for command in cli.SUBCOMMANDS:
        code, out = run([command], tmp_path / command)
        assert code == 0, command
        name = command.replace("-", "_")
        assert (out / f"{name}.json").is_file() and (out / f"{name}.csv").is_file()
        opts = resolved[command]
        assert opts.read == set(opts), (command, set(opts) - opts.read)


@pytest.mark.parametrize("command, config, message", [
    ("moments", {"labl": "gaussian", "ordr": 1}, "unknown key 'labl'"),
    ("pair", {"params": {"label": "sech"}}, "unknown key 'params'"),
    ("support-check", {"S": "x"}, "S: expected a positive number, got 'x'"),
    ("multiplier", {"zeta_max": "big"}, "zeta_max: expected a positive number"),
    ("pair", {"embed": "1e400"}, "embed: expected an expression in z"),
    ("helgason", {"degree": 9}, "degree: expected an integer from 0 to 8, got 9"),
    ("gevrey", {"max_order": 5}, "max_order: expected an integer from 0 to 4, got 5"),
    ("support-check", {"q_max": 2}, "certified truncation tails dominate"),
    ("gevrey", {"omega": [1, 1]}, "omega: expected a comma-separated unit vector"),
    ("radon", {"directions": 0}, "directions: expected a positive integer, got 0"),
])
def test_unknown_keys_and_malformed_values_exit_2(tmp_path, capsys, command,
                                                  config, message):
    cfgfile = tmp_path / "job.json"
    cfgfile.write_text(json.dumps(config))
    code, _ = run([command, "--config", str(cfgfile)], tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_multiplier_report_says_whether_k_reached_its_target(tmp_path):
    code, out = run(["multiplier", "--phi", "log"], tmp_path)
    assert code == 0
    rec = json.loads((out / "multiplier.json").read_text())
    assert rec["K_terms"] == 208621 and rec["converged"] is False
    assert abs(rec["tail_ratio"] - 1.53e-11) <= 0.01e-11


def test_importing_the_package_loads_no_scipy():
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import hypercalc.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_corpus_file_round_trip(tmp_path):
    exprs = {label: f for label, f in cp.default_corpus().items()
             if isinstance(f.f_plus, ex.Expr) and isinstance(f.f_minus, ex.Expr)}
    path = tmp_path / "corpus.json"
    cp.save_corpus(exprs, path)
    loaded = cp.load_corpus(path)
    assert cp.corpus_to_json(loaded) == cp.corpus_to_json(exprs)
    gauss = next(t for t in cp.test_suite() if t.label == "gauss")
    for label, f in exprs.items():
        assert complex(hy.pair(loaded[label], gauss)) == complex(hy.pair(f, gauss)), label
    code1, out1 = run(["pair", "--label", "sech"], tmp_path / "builtin")
    code2, out2 = run(["pair", "--input", str(path), "--label", "sech"],
                      tmp_path / "file")
    assert code1 == code2 == 0
    for suffix in ("json", "csv"):
        assert ((out1 / f"pair.{suffix}").read_bytes()
                == (out2 / f"pair.{suffix}").read_bytes())


def test_corpus_record_with_unequal_strips_reads_as_the_smaller():
    rec = json.loads(cp.corpus_to_json({"sech": cp.default_corpus()["sech"]}))[0]
    assert rec["strip_plus"] == rec["strip_minus"] == 1.4
    narrow = cp.corpus_from_json(json.dumps([{**rec, "strip_minus": 0.9}]))["sech"]
    both = cp.corpus_from_json(json.dumps([{**rec, "strip_plus": 0.9,
                                             "strip_minus": 0.9}]))["sech"]
    assert narrow.strip == both.strip == 0.9
    for phi in cp.test_suite():
        assert complex(hy.pair(narrow, phi)) == complex(hy.pair(both, phi)), phi.label


def test_parse_operator():
    L = cli.parse_operator("t^2*D-1")
    assert set(L.terms) == {(2, 1, 1), (0, 0, -1)}
    L2 = cli.parse_operator("t*D^2 + 3*t")
    assert set(L2.terms) == {(1, 2, 1), (1, 0, 3)}
    with pytest.raises(cli.UsageError):
        cli.parse_operator("t^^2")
    with pytest.raises(cli.UsageError):
        cli.parse_operator("t-t")


def test_gevrey_subcommand(tmp_path):
    code, out = run(["gevrey", "--label", "point_a", "--omega", "0.6,0.8",
                     "--tau-imag", "2.0"], tmp_path)
    assert code == 0
    rec = json.loads((out / "gevrey.json").read_text())
    assert rec["envelope_ok"] is True
