"""End-to-end acceptance gate: one test per shipped guarantee.

Each test pins a user-visible behaviour of the package at its stated
tolerance (exact equality unless a runtime budget is named).  Golden
dimension tables were frozen from the brute-force rank oracle in
oracles.py before the main build and must never drift.
"""

import json
import random
import time
from pathlib import Path

from click.testing import CliRunner

from hopfcontra.ayd import (AydFlavour, build_trivial_coefficient,
                            check_ayd_compatibility, check_stability,
                            dualize_ayd_module, one_dim_coefficient)
from hopfcontra.cli import main
from hopfcontra.cyclic import (build_cocyclic_complex, build_cyclic_complex,
                               build_named_module_algebra,
                               build_named_module_coalgebra,
                               equivariant_hom_basis, homology_dims,
                               tensor_over_H,
                               verify_cyclic_relations)
from hopfcontra.exactla import Matrix, QQ
from hopfcontra.homconn import (build_dga, check_leibniz,
                                curvature_and_flatness,
                                hom_connection_from_contramodule)
from hopfcontra.hopf import check_hopf_axioms
from hopfcontra.reps import ModuleRep
from hopfcontra.session import load_session

from dense_routes import hom_bimodule_actions
from oracles import group_tuple_orbits, homology_dim, intertwiner_dim
from test_ayd import _sweedler_ayd_module
from test_cyclic import _power_module, _raw_power
from test_hopf import _mutated_copy

SESSIONS = Path(__file__).resolve().parent.parent / "sessions"

LR = AydFlavour.from_code("lr")
LL = AydFlavour.from_code("ll")
RR = AydFlavour.from_code("rr")


def _alt_sum(ops):
    F = ops[0].field
    total = ops[0]
    for i, op in enumerate(ops[1:], start=1):
        total = total + op.scale(F.coerce((-1) ** i))
    return total


def _boundaries(cx):
    """Alternating face sums per degree, assembled outside the package."""
    out = {}
    for n, faces in cx.faces.items():
        out[n] = _alt_sum(faces)
    return out


def test_c01_axioms_pass_and_mutations_are_caught(c2, c3, h4, h4_gf7, trivial):
    started = time.perf_counter()
    for h in (trivial, c2, c3, h4, h4_gf7):
        rep = check_hopf_axioms(h)
        assert rep.ok and not rep.failures()
    for h, seed in ((c2, 7001), (h4, 7002)):
        rng = random.Random(seed)
        for _ in range(20):
            rep = check_hopf_axioms(_mutated_copy(h, rng))
            assert not rep.ok
            assert rep.failures()[0].witness is not None
    assert time.perf_counter() - started < 1.0


def test_c02_antipode_squares_to_conjugation(h4):
    S = h4.antipode
    I4 = Matrix.identity(h4.field, 4)
    assert S @ S != I4
    assert S @ S @ S @ S == I4
    # the inverse antipode sends the skew generator to its group twist
    x, g = 2, 1
    twisted = [h4.mul.data[k][g * 4 + x] for k in range(4)]
    assert h4.antipode_inv_of(x) == twisted


def test_c03_cyclic_relations_hold_through_degree_three(c2, h4):
    # the group algebra build carries one extra level so that the extremal
    # identity d4 s3 = id is itself in evidence at degree 3; the four
    # dimensional case stops at the top level the runtime budget allows
    started = time.perf_counter()
    cx = build_cyclic_complex(build_named_module_coalgebra("regular", c2),
                              build_trivial_coefficient(c2, LR), max_degree=4)
    module = _sweedler_ayd_module(h4)
    cx4 = build_cyclic_complex(build_named_module_coalgebra("regular", h4),
                               dualize_ayd_module(module), max_degree=3)
    for cx_case, s_top in ((cx, 4), (cx4, 3)):
        rep = verify_cyclic_relations(cx_case)
        assert rep.ok, rep.failures()[0].name
        names = {v.name for v in rep.verdicts}
        for n in range(4):
            assert f"t^{n + 1} = id at degree {n}" in names
        for n in range(s_top):
            assert f"d{n + 1} s{n} = id at degree {n}" in names
    assert time.perf_counter() - started < 30.0


def test_c04_cocyclic_relations_hold(c2, h4):
    cx = build_cocyclic_complex(build_named_module_algebra("trivial", c2),
                                build_trivial_coefficient(c2, LL), max_degree=3)
    rep = verify_cyclic_relations(cx)
    assert rep.ok, rep.failures()[0].name
    names = {v.name for v in rep.verdicts}
    for n in range(4):
        assert f"tau^{n + 1} = id at degree {n}" in names
    assert "tau delta1 = delta0 tau at degree 2" in names
    coeff = one_dim_coefficient(h4, LL, [1, 1, 0, 0], [0, 1, 0, 0])
    cx4 = build_cocyclic_complex(build_named_module_algebra("adjoint", h4),
                                 coeff, max_degree=2)
    rep4 = verify_cyclic_relations(cx4)
    assert rep4.ok, rep4.failures()[0].name
    names4 = {v.name for v in rep4.verdicts}
    for n in range(3):
        assert f"tau^{n + 1} = id at degree {n}" in names4


def test_c05_hom_bimodule_laws(c2, h4):
    for algebra, coeff in (
            (build_named_module_algebra("trivial", c2),
             build_trivial_coefficient(c2, LL)),
            (build_named_module_algebra("adjoint", h4),
             one_dim_coefficient(h4, LL, [1, 1, 0, 0], [0, 1, 0, 0]))):
        left_ops, right_ops, rep = hom_bimodule_actions(algebra, coeff)
        assert rep.ok, rep.failures()[0].name
        assert len(left_ops) == len(right_ops) == algebra.dim


def test_c06_instability_breaks_exactly_the_cyclic_family():
    session = load_session(SESSIONS / "c2_nonstable.session")
    sgn = session.coefficients["sgn"]
    assert check_ayd_compatibility(sgn).ok
    assert not check_stability(sgn).ok
    cx = build_cyclic_complex(session.module_coalgebra, sgn,
                              max_degree=2, allow_unstable=True)
    rep = verify_cyclic_relations(cx)
    failing = sorted(v.name for v in rep.failures())
    assert failing == ["t^1 = id at degree 0",
                       "t^2 = id at degree 1",
                       "t^3 = id at degree 2"]
    # the command line surfaces the same split
    res = CliRunner().invoke(main, ["build-cyclic",
                                    str(SESSIONS / "c2_nonstable.session"),
                                    "--max-degree", "2", "--allow-unstable"])
    assert res.exit_code == 1
    assert "FAIL coefficient sgn: t^1 = id at degree 0" in res.output


def test_c07_dimension_law_against_independent_oracles(c2, h4):
    coalg2 = build_named_module_coalgebra("regular", c2)
    triv = build_trivial_coefficient(c2, LR)
    dims2 = [equivariant_hom_basis(coalg2.action, triv, n).dim
             for n in range(4)]
    assert dims2 == [1, 2, 4, 8]
    assert dims2 == [c2.dim ** n * triv.dim for n in range(4)]
    assert dims2 == [group_tuple_orbits(2, n + 1) for n in range(4)]
    coalg4 = build_named_module_coalgebra("regular", h4)
    evg = one_dim_coefficient(h4, LR, [1, 1, 0, 0], [0, 1, 0, 0])
    dims4 = [equivariant_hom_basis(coalg4.action, evg, n).dim
             for n in range(3)]
    assert dims4 == [1, 4, 16]
    assert dims4 == [h4.dim ** n * evg.dim for n in range(3)]
    for h, coalg, coeff, dims, top in ((c2, coalg2, triv, dims2, 4),
                                       (h4, coalg4, evg, dims4, 3)):
        for n in range(top):
            x_ops = _raw_power(coalg.action, n + 1)
            m_ops = [m.data for m in coeff.action.matrices]
            assert intertwiner_dim(x_ops, m_ops) == dims[n]


def test_c08_hom_into_dual_matches_tensor_quotient(c2, h4):
    session = load_session(SESSIONS / "h4_cyclic.session")
    module = session.coefficients["n"]
    ndual = session.coefficients["ndual"]
    rebuilt = dualize_ayd_module(module)
    assert rebuilt.alpha.alpha == ndual.alpha.alpha
    assert all(a == b for a, b in zip(rebuilt.action.matrices,
                                      ndual.action.matrices))
    coalg = session.module_coalgebra
    for n in range(4):
        diag = _power_module(coalg.action, n + 1)
        hom_dim = equivariant_hom_basis(coalg.action, ndual, n).dim
        assert tensor_over_H(module, diag).dim == hom_dim, n
    coalg2 = build_named_module_coalgebra("regular", c2)
    one = Matrix.from_rows(QQ, [[1]])
    trivial_right = ModuleRep(c2, "right", [one, one])
    coeff = build_trivial_coefficient(c2, LR)
    for n in range(4):
        diag = _power_module(coalg2.action, n + 1)
        hom_dim = equivariant_hom_basis(coalg2.action, coeff, n).dim
        assert tensor_over_H(trivial_right, diag).dim == hom_dim, n


def test_c09_homology_tables_match_frozen_goldens(c2, h4, trivial):
    builds = []
    cx_c2 = build_cyclic_complex(build_named_module_coalgebra("regular", c2),
                                 build_trivial_coefficient(c2, LR), max_degree=3)
    builds.append(cx_c2)
    cx_triv = build_cyclic_complex(
        build_named_module_coalgebra("trivial", trivial),
        build_trivial_coefficient(trivial, LR), max_degree=4)
    builds.append(cx_triv)
    session = load_session(SESSIONS / "h4_cyclic.session")
    cx_h4 = build_cyclic_complex(session.module_coalgebra,
                                 session.coefficients["ndual"], max_degree=3)
    builds.append(cx_h4)
    gf7 = load_session(SESSIONS / "sweedler_gf7.session")
    builds.append(build_cyclic_complex(gf7.module_coalgebra,
                                       gf7.coefficients["c0"], max_degree=3))
    cocyc = load_session(SESSIONS / "c2_cocyclic.session")
    builds.append(build_cocyclic_complex(cocyc.module_algebra,
                                         cocyc.coefficients["k"], max_degree=3))
    adj = load_session(SESSIONS / "h4_adjoint.session")
    builds.append(build_cocyclic_complex(adj.module_algebra,
                                         adj.coefficients["c0"], max_degree=2))
    for cx in builds:
        bounds = _boundaries(cx)
        pairs = [(n, n + 1) for n in sorted(bounds) if n + 1 in bounds]
        assert pairs
        for n, m in pairs:
            if cx.kind == "cyclic":
                assert (bounds[n] @ bounds[m]).is_zero(), (cx.kind, n)
            else:
                assert (bounds[m] @ bounds[n]).is_zero(), (cx.kind, n)
    # frozen golden tables
    assert homology_dims(cx_triv, mode="hochschild") == [1, 0, 0, 0]
    assert homology_dims(cx_c2, mode="hochschild") == [1, 0, 0]
    assert homology_dims(cx_c2, mode="connes") == [1, 0, 1]
    assert homology_dims(cx_h4, mode="hochschild") == [0, 1, 0]
    # live cross-check of the rational table against the rank oracle
    b = _boundaries(cx_c2)
    b[0] = Matrix.zeros(cx_c2.field, 1, cx_c2.dims[0])
    assert [homology_dim(b[n + 1], b[n]) for n in range(3)] == [1, 0, 0]


def test_c10_connections_are_flat_and_corruption_is_caught(c2, h4, h4_gf7):
    for h in (c2, h4, h4_gf7):
        dga = build_dga(h)
        assert (dga.d1 @ dga.d0).is_zero()
        for n in range(3):
            assert dga.omega_dim(n) == (h.dim - 1) ** n * h.dim
    hc2 = hom_connection_from_contramodule(
        build_trivial_coefficient(c2, RR), build_dga(c2))
    assert check_leibniz(hc2).ok
    assert curvature_and_flatness(hc2)[0].is_zero()
    evg = one_dim_coefficient(h4, RR, [1, 1, 0, 0], [0, 1, 0, 0])
    hc4 = hom_connection_from_contramodule(evg, build_dga(h4))
    assert check_ayd_compatibility(evg).ok
    assert check_leibniz(hc4).ok
    assert curvature_and_flatness(hc4)[0].is_zero()
    bad = one_dim_coefficient(h4, RR, [1, 1, 0, 0], [0, 0, 1, 0])
    hcb = hom_connection_from_contramodule(bad, build_dga(h4),
                                           require_checked=False)
    curvature, rep = curvature_and_flatness(hcb)
    assert not curvature.is_zero()
    witness = rep.failures()[0].witness
    assert witness == {"row": 0, "col": 1, "lhs": "-1", "rhs": "0"}


def test_c11_reports_are_deterministic_within_budget(tmp_path):
    started = time.perf_counter()
    digests = [{}, {}]
    for run in range(2):
        for p in sorted(SESSIONS.glob("*.session")):
            out = tmp_path / f"{p.stem}-{run}"
            res = CliRunner().invoke(
                main, ["report", str(p), "--out", str(out)])
            assert res.exit_code in (0, 1), (p.name, res.output)
            payload = out.with_suffix(".json").read_bytes()
            digests[run][p.stem] = payload
            doc = json.loads(payload)
            assert doc["input"]["path"] == p.name
    assert digests[0] == digests[1]
    assert time.perf_counter() - started < 120.0
