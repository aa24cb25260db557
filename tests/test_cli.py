import dataclasses
import json
import os
import resource
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from hopfcontra import cli, hopf
from hopfcontra.cli import main
from hopfcontra.exactla import Matrix
from hopfcontra.session import load_session

from explicit_hopf import cyclic_group_session

ROOT = Path(__file__).resolve().parent.parent
SESSIONS = ROOT / "sessions"
GOLDEN = Path(__file__).resolve().parent / "golden"

GREEN_SESSIONS = ["c2_cocyclic", "c2_homconn", "c2_trivial", "h4_adjoint",
                  "h4_cyclic", "h4_homconn", "sweedler_gf7", "trivial_hopf"]


def _invoke(args):
    return CliRunner().invoke(main, [str(a) for a in args])


def test_report_green_sessions():
    for name in GREEN_SESSIONS:
        res = _invoke(["report", SESSIONS / f"{name}.session"])
        assert res.exit_code == 0, (name, res.output)
        assert res.output.rstrip().endswith("overall: pass"), name


def test_report_nonstable_session_fails_verdicts():
    res = _invoke(["report", SESSIONS / "c2_nonstable.session"])
    assert res.exit_code == 1
    # one stability verdict plus the three cyclicity relations
    failing = [l for l in res.output.splitlines() if l.startswith("FAIL ")]
    assert len(failing) == 4
    assert "t^3 = id at degree 2" in res.output
    assert res.output.rstrip().endswith("overall: FAIL")


def test_golden_reports(tmp_path):
    for p in sorted(SESSIONS.glob("*.session")):
        out = tmp_path / p.stem
        res = _invoke(["report", p, "--out", out])
        assert res.exit_code in (0, 1), (p.name, res.output)
        for suffix in (".json", ".txt"):
            produced = out.with_suffix(suffix).read_bytes()
            want = (GOLDEN / (p.stem + suffix)).read_bytes()
            assert produced == want, f"{p.stem}{suffix} drifted"


def test_repeat_runs_are_byte_identical(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        res = _invoke(["report", SESSIONS / "h4_cyclic.session", "--out", out])
        assert res.exit_code == 0
        outs.append(out.with_suffix(".json").read_bytes())
    assert outs[0] == outs[1]


def test_out_writes_text_and_canonical(tmp_path):
    out = tmp_path / "result"
    res = _invoke(["check", SESSIONS / "c2_trivial.session", "--out", out])
    assert res.exit_code == 0
    assert res.output == ""
    doc = json.loads(out.with_suffix(".json").read_text())
    assert doc["ok"] is True
    assert doc["input"]["path"] == "c2_trivial.session"
    assert len(doc["input"]["sha256"]) == 64
    text = out.with_suffix(".txt").read_text()
    assert text.startswith("hopfcontra ")
    assert text.endswith("overall: pass\n")


def test_canonical_stdout_format():
    res = _invoke(["check", SESSIONS / "c2_trivial.session",
                   "--format", "canonical"])
    assert res.exit_code == 0
    assert res.output.endswith("\n")
    doc = json.loads(res.output)
    # canonical means sorted keys and compact separators
    assert res.output == json.dumps(doc, sort_keys=True,
                                    separators=(",", ":")) + "\n"


def test_missing_file_is_a_usage_error():
    res = _invoke(["check", SESSIONS / "does_not_exist.session"])
    assert res.exit_code == 2


def test_parse_error_exit_code(tmp_path):
    p = tmp_path / "broken.session"
    p.write_text("{ not json }")
    res = _invoke(["check", p])
    assert res.exit_code == 3
    assert "parse error at line 1" in res.stderr


def test_validation_error_exit_code(tmp_path):
    p = tmp_path / "bad.session"
    p.write_text(json.dumps({"field": {"kind": "Q"}, "hopf": {"name": "what"}}))
    res = _invoke(["check", p])
    assert res.exit_code == 4
    assert "validation error at hopf.name" in res.stderr


def test_report_without_tasks_is_a_task_error(tmp_path):
    p = tmp_path / "empty.session"
    p.write_text(json.dumps({"field": {"kind": "Q"},
                             "hopf": {"name": "group_C2"}}))
    res = _invoke(["report", p])
    assert res.exit_code == 5
    assert "declares no tasks" in res.stderr


def test_modulus_beyond_exact_primality_is_a_validation_error(tmp_path):
    p = tmp_path / "huge.session"
    p.write_text(json.dumps({"field": {"kind": "GF", "p": 10 ** 25},
                             "hopf": {"name": "group_C2"}}))
    res = _invoke(["check", p])
    assert res.exit_code == 4
    assert "validation error at field.p" in res.stderr
    assert "too large" in res.stderr


def test_report_builds_each_complex_once(tmp_path, monkeypatch):
    # build-cyclic and homology share one key, so one build serves both
    calls = []
    real = cli.build_cyclic_complex

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "build_cyclic_complex", counting)
    out = tmp_path / "c2_trivial"
    res = _invoke(["report", SESSIONS / "c2_trivial.session", "--out", out])
    assert res.exit_code == 0, res.output
    assert len(calls) == 1
    for suffix in (".json", ".txt"):
        assert (out.with_suffix(suffix).read_bytes()
                == (GOLDEN / f"c2_trivial{suffix}").read_bytes())


def test_allow_unstable_leaves_session_tasks_unchanged(tmp_path, monkeypatch):
    doc = json.loads((SESSIONS / "c2_nonstable.session").read_text())
    del doc["tasks"][1]["allow_unstable"]
    p = tmp_path / "gated.session"
    p.write_text(json.dumps(doc))
    session = load_session(p)
    before = [dataclasses.asdict(t) for t in session.tasks]
    monkeypatch.setattr(cli, "load_session", lambda path: session)
    res = _invoke(["report", p, "--allow-unstable"])
    assert res.exit_code == 1
    assert "FAIL coefficient sgn: t^1 = id at degree 0" in res.output
    assert [dataclasses.asdict(t) for t in session.tasks] == before
    # the same session object still gates without the override
    res = _invoke(["report", p])
    assert res.exit_code == 5
    assert "task error: PrerequisiteFailed" in res.stderr


@pytest.mark.parametrize("raw", ["abc", "0", "-5"])
def test_bad_dimension_cap_is_a_validation_error(raw, monkeypatch):
    monkeypatch.setenv("HOPFCONTRA_DIM_CAP", raw)
    for command in ("check", "report"):
        res = _invoke([command, SESSIONS / "c2_trivial.session"])
        assert res.exit_code == 4, (command, res.output)
        assert res.stderr == ("validation error at HOPFCONTRA_DIM_CAP: "
                              f"must be a positive integer, got {raw!r}\n")


def test_dimension_cap_from_the_environment(monkeypatch):
    monkeypatch.setenv("HOPFCONTRA_DIM_CAP", "10")
    res = _invoke(["report", SESSIONS / "c2_trivial.session"])
    assert res.exit_code == 5
    assert res.stderr == ("task error: DimensionCapExceeded: hom space dimension 16 "
                          "exceeds the cap 10 (task 2: build-cyclic [k])\n")
    monkeypatch.setenv("HOPFCONTRA_DIM_CAP", "")
    assert _invoke(["report", SESSIONS / "c2_trivial.session"]).exit_code == 0


def test_homconn_cap_is_checked_before_the_coring(monkeypatch):
    # dim H ** 3 = 64 for H4 is refused from the shape alone
    monkeypatch.setenv("HOPFCONTRA_DIM_CAP", "63")

    def unreachable(*args):
        raise AssertionError("build_ayd_coring ran before the cap check")

    monkeypatch.setattr(cli, "build_ayd_coring", unreachable)
    res = _invoke(["report", SESSIONS / "h4_homconn.session"])
    assert res.exit_code == 5
    assert res.stderr == ("task error: DimensionCapExceeded: threefold tensor power "
                          "dimension 64 exceeds the cap 63 (task 2: homconn [evg])\n")
    monkeypatch.undo()
    monkeypatch.setenv("HOPFCONTRA_DIM_CAP", "64")
    assert _invoke(["report", SESSIONS / "h4_homconn.session"]).exit_code == 0


def test_homconn_on_an_eight_dimensional_group_algebra_fits_in_512_mb(tmp_path):
    # a dense threefold action of k[Z/8] would be 512 x 512, and a dense
    # iterated coproduct kron(comul, I_512) 32768 x 4096 cells
    session = tmp_path / "c8.session"
    session.write_text(json.dumps(cyclic_group_session(7, 8)))
    proc = run_capped(["report", session], 512)
    assert proc.returncode == 0, proc.stderr
    assert "pass coefficient k: curvature vanishes" in proc.stdout.splitlines()


def test_homconn_on_a_twelve_dimensional_group_algebra_fits_in_256_mb(tmp_path):
    # the laws are checked on sparse columns; a dense coassociativity check
    # would need kron(comul, I_144) at 20736 x 1728 cells
    session = tmp_path / "c12.session"
    session.write_text(json.dumps(cyclic_group_session(7, 12)))
    proc = run_capped(["homconn", session], 256)
    assert proc.returncode == 0, proc.stderr
    assert "pass coefficient k: curvature vanishes" in proc.stdout.splitlines()


def test_homconn_forms_no_matrix_beyond_d5_cells(tmp_path, monkeypatch):
    # d^5 is the size of the coring coproduct d^3 x d^2; a kron(comul, I_d^2)
    # would have d^7 cells
    session = tmp_path / "c12.session"
    session.write_text(json.dumps(cyclic_group_session(7, 12)))
    largest = []
    init = Matrix.__init__

    def recording(self, field, rows, cols, data):
        largest.append(rows * cols)
        init(self, field, rows, cols, data)

    monkeypatch.setattr(Matrix, "__init__", recording)
    res = _invoke(["homconn", session])
    assert res.exit_code == 0, res.output
    assert max(largest) <= 12 ** 5


def test_h4_homconn_checks_the_hopf_axioms_once(monkeypatch):
    # the check task, the coring and the calculus share one cached report
    calls = []
    laws = hopf.compare_coalgebra_laws
    monkeypatch.setattr(hopf, "compare_coalgebra_laws",
                        lambda rep, c: calls.append(c) or laws(rep, c))
    assert _invoke(["report", SESSIONS / "h4_homconn.session"]).exit_code == 0
    assert len(calls) == 1


def test_task_errors_name_task_and_coefficient(tmp_path):
    # the session names its coefficient: the label carries it
    doc = json.loads((SESSIONS / "c2_nonstable.session").read_text())
    del doc["tasks"][1]["allow_unstable"]
    p = tmp_path / "gated.session"
    p.write_text(json.dumps(doc))
    res = _invoke(["report", p])
    assert res.exit_code == 5
    assert res.stderr.startswith("task error: PrerequisiteFailed: ")
    assert res.stderr.endswith(" (task 2: build-cyclic [sgn])\n")
    # a subcommand runs every coefficient: the failing one is named
    res = _invoke(["build-cyclic", SESSIONS / "c2_nonstable.session"])
    assert res.exit_code == 5
    assert res.stderr.endswith(" (task 1: build-cyclic [sgn])\n")
    res = _invoke(["homology", SESSIONS / "sweedler_gf7.session", "--mode", "connes"])
    assert res.stderr == ("task error: CharacteristicUnsupported: the cyclic quotient "
                          "needs characteristic zero (task 1: homology [c0])\n")
    # errors outside any coefficient keep the bare label
    res = _invoke(["homconn", SESSIONS / "c2_trivial.session"])
    assert res.stderr == ("task error: session has no rr contramodule coefficient "
                          "(task 1: homconn)\n")


def test_connes_mode_needs_characteristic_zero():
    res = _invoke(["homology", SESSIONS / "sweedler_gf7.session",
                   "--mode", "connes"])
    assert res.exit_code == 5
    assert "task error: CharacteristicUnsupported" in res.stderr


def test_unstable_gate_and_override():
    nonstable = SESSIONS / "c2_nonstable.session"
    res = _invoke(["build-cyclic", nonstable, "--max-degree", 2])
    assert res.exit_code == 5
    assert "task error: PrerequisiteFailed" in res.stderr
    res = _invoke(["build-cyclic", nonstable, "--max-degree", 2,
                   "--allow-unstable"])
    assert res.exit_code == 1
    assert "FAIL coefficient sgn: t^1 = id at degree 0" in res.output


def test_homology_subcommand_tables():
    res = _invoke(["homology", SESSIONS / "c2_trivial.session",
                   "--mode", "connes"])
    assert res.exit_code == 0
    assert "equivariant dimensions: 1 2 4 8" in res.output
    assert "connes homology dimensions: 1 0 1" in res.output


def test_homology_needs_kind_when_both_structures_are_declared(tmp_path):
    doc = {"field": {"kind": "Q"}, "hopf": {"name": "group_C2"},
           "module_coalgebra": {"name": "regular"}, "module_algebra": {"name": "trivial"},
           "coefficients": [{"id": "r", "kind": "contramodule", "flavour": "lr", "name": "trivial"},
                            {"id": "l", "kind": "contramodule", "flavour": "ll", "name": "trivial"}]}
    p = tmp_path / "both.session"
    p.write_text(json.dumps(doc))
    res = _invoke(["homology", p, "--max-degree", 2])
    assert res.exit_code == 5, res.output
    assert res.stderr == ("task error: homology needs --kind when the session declares "
                          "both or neither complex structure (task 1: homology)\n")
    for kind, cid in (("cocyclic", "l"), ("cyclic", "r")):
        res = _invoke(["homology", p, "--max-degree", 2, "--kind", kind])
        assert res.exit_code == 0, res.output
        assert f"table coefficient {cid}: hochschild homology dimensions: 1 0" in res.output


def test_homconn_needs_an_rr_coefficient():
    res = _invoke(["homconn", SESSIONS / "c2_trivial.session"])
    assert res.exit_code == 5
    assert "no rr contramodule coefficient" in res.stderr


def test_named_coefficient_flavour_mismatch(tmp_path):
    doc = {"field": {"kind": "Q"}, "hopf": {"name": "group_C2"},
           "coefficients": [{"id": "k", "kind": "contramodule",
                             "flavour": "lr", "name": "trivial"}],
           "tasks": [{"task": "homconn", "coefficient": "k"}]}
    p = tmp_path / "mismatch.session"
    p.write_text(json.dumps(doc))
    res = _invoke(["report", p])
    assert res.exit_code == 5
    assert "'k' is not a rr contramodule" in res.stderr


def _entry_point_command():
    """The installed `hopfcontra` script beside this interpreter, else
    `python -m hopfcontra`; a script from another environment is ignored."""
    script = shutil.which("hopfcontra", path=str(Path(sys.executable).parent))
    return [script] if script else [sys.executable, "-m", "hopfcontra"]


def _checkout_env():
    """The environment with the directory holding the imported package put
    first on PYTHONPATH, so the child runs the checkout under test."""
    src = str(Path(cli.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join([src, rest]) if rest else src)


def run_capped(args, limit_mb):
    """`python -m hopfcontra ARGS` on the checkout under test, with its address
    space capped at limit_mb and its run at the 30 s budget."""
    limit = limit_mb << 20

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run([sys.executable, "-m", "hopfcontra"] + [str(a) for a in args],
                          capture_output=True, text=True, timeout=30,
                          env=_checkout_env(), preexec_fn=cap_address_space)


def test_console_script_round_trip(tmp_path):
    out = tmp_path / "cli"
    proc = subprocess.run(
        _entry_point_command() + ["report",
                                  str(SESSIONS / "c2_homconn.session"),
                                  "--out", str(out)],
        capture_output=True, text=True, timeout=120, env=_checkout_env())
    assert proc.returncode == 0, proc.stderr
    produced = out.with_suffix(".json").read_bytes()
    assert produced == (GOLDEN / "c2_homconn.json").read_bytes()


def test_entry_points_name_cli_main(monkeypatch):
    # `python -m hopfcontra` calls cli.main under the script's name ...
    calls = []
    monkeypatch.setattr(cli, "main", lambda **kw: calls.append(kw))
    runpy.run_module("hopfcontra", run_name="__main__")
    assert calls == [{"prog_name": "hopfcontra"}]
    # ... and the declared console script names that same callable, so a
    # round trip through the fallback cannot hide a broken declaration.
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"hopfcontra": "hopfcontra.cli:main"}


def test_version_flag():
    res = _invoke(["--version"])
    assert res.exit_code == 0
    assert "hopfcontra" in res.output
