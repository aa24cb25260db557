"""The one homology route against the routes it replaced.

`cyclic.homology_dims` reads every Hochschild and Connes table off ranks of
one chain complex.  `dense_routes.quotient_route_dims` keeps the earlier
routes: middle homology of the boundaries themselves, the dense quotient by
the image of 1 - (sign) * cyclic operator for a cyclic complex, and the
invariant kernels with the coboundaries solved into them for a cocyclic one.
Both must give the same table, or fail with the same error.
"""

import json
from pathlib import Path

import pytest

from hopfcontra.ayd import AydCoefficient
from hopfcontra.cyclic import (MODES, build_cocyclic_complex, build_cyclic_complex,
                               homology_dims)
from hopfcontra.errors import CharacteristicUnsupported, CompositionNotZero
from hopfcontra.exactla import Matrix
from hopfcontra.session import load_session

from dense_routes import quotient_route_dims
from explicit_hopf import taft_session

SESSIONS = Path(__file__).resolve().parent.parent / "sessions"


def _session_complexes():
    """(label, complex) for every complex a bundled session's tasks build, at
    the declared degree and, on the C2 sessions, one degree higher."""
    out = {}
    for path in sorted(SESSIONS.glob("*.session")):
        s = load_session(path)
        c2 = path.stem.startswith("c2_")
        for task in s.tasks:
            if task.task in ("check", "homconn"):
                continue
            kind = task.kind or task.task[len("build-"):]
            cyclic = kind == "cyclic"
            flavour = "lr" if cyclic else "ll"
            ids = [task.coefficient] if task.coefficient else [
                cid for cid, c in s.coefficients.items()
                if isinstance(c, AydCoefficient) and c.flavour.code == flavour]
            for cid in ids:
                for top in (task.max_degree, task.max_degree + 1) if c2 else (task.max_degree,):
                    label = f"{path.stem} {kind} [{cid}] to degree {top}"
                    if label in out:
                        continue
                    build = build_cyclic_complex if cyclic else build_cocyclic_complex
                    data = s.module_coalgebra if cyclic else s.module_algebra
                    out[label] = build(data, s.coefficients[cid], max_degree=top,
                                       allow_unstable=task.allow_unstable)
    return out


def _outcome(route, cx, mode):
    try:
        return route(cx, mode)
    except (CharacteristicUnsupported, CompositionNotZero) as e:
        return type(e).__name__, str(e), getattr(e, "degree", None)


def test_bundled_sessions_match_the_quotient_routes():
    built = _session_complexes()
    kinds = {cx.kind for cx in built.values()}
    assert kinds == {"cyclic", "cocyclic"}
    assert len(built) == 10, sorted(built)
    refused = 0
    for label, cx in built.items():
        for mode in MODES:
            got = _outcome(homology_dims, cx, mode)
            assert got == _outcome(quotient_route_dims, cx, mode), (label, mode)
            if isinstance(got, list):
                assert len(got) == cx.max_degree
            else:
                # only connes on a prime field is refused, and by both routes
                assert (mode, got[0]) == ("connes", "CharacteristicUnsupported"), label
                assert cx.field.characteristic != 0
                refused += 1
    # sweedler_gf7 is the one bundled complex over GF(7)
    assert refused == 1


def test_taft_hochschild_over_gf7_matches(tmp_path):
    path = tmp_path / "taft.session"
    path.write_text(json.dumps(taft_session(7, 3, 2, 2)))
    s = load_session(path)
    cx = build_cyclic_complex(s.module_coalgebra, s.coefficients["c"], max_degree=2)
    assert cx.dims == [1, 9, 81]
    got = homology_dims(cx, "hochschild")
    assert got == quotient_route_dims(cx, "hochschild")
    assert len(got) == 2


def _c2_complex(kind, top):
    s = load_session(SESSIONS / ("c2_trivial.session" if kind == "cyclic"
                                 else "c2_cocyclic.session"))
    if kind == "cyclic":
        return build_cyclic_complex(s.module_coalgebra, s.coefficients["k"], max_degree=top)
    return build_cocyclic_complex(s.module_algebra, s.coefficients["k"], max_degree=top)


def test_coboundary_leaving_the_invariants_names_its_degree():
    # a coboundary into degree 1 that is nonzero while 1 - lambda is the
    # identity there, so only zero is invariant at degree 1
    cx = _c2_complex("cocyclic", 2)
    F = cx.field
    d0, d1 = cx.dims[0], cx.dims[1]
    cx.faces[1] = [Matrix.from_rows(F, [[1] * d0] * d1), Matrix.zeros(F, d1, d0)]
    cx.cyclers[1] = Matrix.zeros(F, d1, d1)
    want = ("CompositionNotZero",
            "coboundary leaves the invariant subcomplex at degree 1", 1)
    assert _outcome(homology_dims, cx, "connes") == want
    assert _outcome(quotient_route_dims, cx, "connes") == want


@pytest.mark.parametrize("kind", ["cyclic", "cocyclic"])
def test_differentials_that_do_not_compose_to_zero_name_the_degree(kind):
    # b_1 and b_2 are all-ones matrices: their composite through degree 1
    # is nonzero, and one message serves both kinds
    cx = _c2_complex(kind, 3)
    F = cx.field
    for n in (1, 2):
        shape = cx.faces[n][0].shape
        ones = Matrix.from_entries(F, *shape, [(i, j, 1) for i in range(shape[0])
                                               for j in range(shape[1])])
        cx.faces[n] = [ones] + [Matrix.zeros(F, *shape)] * n
    with pytest.raises(CompositionNotZero) as exc:
        homology_dims(cx, "hochschild")
    assert exc.value.degree == 1
    assert str(exc.value) == "differentials do not compose to zero at degree 1"
    with pytest.raises(CompositionNotZero):
        quotient_route_dims(cx, "hochschild")
