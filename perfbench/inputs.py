"""Seeded session files for the benchmark workloads.

The templates are the bundled sessions under the checkout's `sessions/`,
read as shipped, plus two workload sessions of the benchmark's own under
`perfbench/sessions/`.  Seed 0 writes every template byte for byte.  Any
other seed writes the Hopf algebra out as explicit structure constants, in
a basis relabelled by a permutation drawn from the seed, and permutes every
coefficient field indexed by the Hopf basis to match.  For
the GF(p) deep workload the seed picks the prime instead and the basis order
stays canonical (see CANONICAL_ORDER).  The program sees only the written
files.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

BENCH_TEMPLATES = Path(__file__).resolve().parent / "sessions"
BUNDLED_TEMPLATES = Path(__file__).resolve().parent.parent / "sessions"

# Workload name -> template names, in run order.
WORKLOADS = {
    "h4-cyclic-q": ["h4_cyclic"],
    "h4-cyclic-gf-deep": ["h4_gf_deep"],
    "h4-cocyclic-q": ["h4_cocyclic_q"],
    "small-sessions": ["c2_cocyclic", "c2_homconn", "c2_nonstable", "c2_trivial",
                       "h4_adjoint", "h4_homconn", "sweedler_gf7", "trivial_hopf"],
}

# Odd primes the deep GF(p) workload draws from; seed 0 keeps the bundled 7.
DEEP_PRIMES = (7, 11, 13, 17, 19)
# Templates whose basis order stays canonical: elimination over GF(p) picks
# the first nonzero pivot, so the deep workload's cost moves by up to a fifth
# with the order of the Hopf basis, while its seed still picks the prime.
CANONICAL_ORDER = ("h4_gf_deep",)


def _group(order):
    mul = [[i, j, (i + j) % order, 1] for i in range(order) for j in range(order)]
    return {
        "dim": order,
        "mul": mul,
        "unit": [1] + [0] * (order - 1),
        "comul": [[i, i, i, 1] for i in range(order)],
        "counit": [1] * order,
        "antipode": [[(-i) % order, i, 1] for i in range(order)],
    }


def _sweedler():
    # basis 0:1, 1:g, 2:x, 3:gx with g^2 = 1, x^2 = 0, xg = -gx
    return {
        "dim": 4,
        "mul": [[0, 0, 0, 1], [0, 1, 1, 1], [0, 2, 2, 1], [0, 3, 3, 1],
                [1, 0, 1, 1], [1, 1, 0, 1], [1, 2, 3, 1], [1, 3, 2, 1],
                [2, 0, 2, 1], [2, 1, 3, -1], [3, 0, 3, 1], [3, 1, 2, -1]],
        "unit": [1, 0, 0, 0],
        "comul": [[0, 0, 0, 1], [1, 1, 1, 1], [2, 2, 0, 1], [2, 1, 2, 1],
                  [3, 3, 1, 1], [3, 0, 3, 1]],
        "counit": [1, 1, 0, 0],
        "antipode": [[0, 0, 1], [1, 1, 1], [3, 2, -1], [2, 3, 1]],
    }


HOPF_CONSTANTS = {
    "trivial": lambda: _group(1),
    "group_C2": lambda: _group(2),
    "sweedler_H4": _sweedler,
}


def template_path(template):
    """The benchmark's own template if there is one, else the bundled session."""
    own = BENCH_TEMPLATES / f"{template}.session"
    return own if own.is_file() else BUNDLED_TEMPLATES / f"{template}.session"


def hopf_constants(name):
    """Explicit structure constants of a bundled Hopf algebra, canonical basis."""
    return HOPF_CONSTANTS[name]()


def _permute_list(values, perm):
    out = [None] * len(values)
    for i, v in enumerate(values):
        out[perm[i]] = v
    return out


def relabel_hopf(consts, perm):
    """Write the Hopf algebra in the basis e'_{perm[i]} = e_i."""
    return {
        "dim": consts["dim"],
        "mul": [[perm[i], perm[j], perm[k], s] for i, j, k, s in consts["mul"]],
        "unit": _permute_list(consts["unit"], perm),
        "comul": [[perm[i], perm[j], perm[k], s] for i, j, k, s in consts["comul"]],
        "counit": _permute_list(consts["counit"], perm),
        "antipode": [[perm[r], perm[c], s] for r, c, s in consts["antipode"]],
    }


def relabel_coefficient(coeff, perm):
    """Permute every field of a coefficient that is indexed by the Hopf basis."""
    out = dict(coeff)
    for key in ("character", "alpha_row"):
        if key in out:
            out[key] = _permute_list(out[key], perm)
    if "action" in out:
        out["action"] = [[perm[a], r, c, s] for a, r, c, s in out["action"]]
    dm = out.get("dim", 1)
    if "alpha" in out:
        # columns of Hom(H, M) -> M are a * dim M + m
        out["alpha"] = [[r, perm[c // dm] * dm + c % dm, s] for r, c, s in out["alpha"]]
    if "coaction" in out:
        # rows of M -> H (x) M are h * dim M + m
        out["coaction"] = [[perm[r // dm] * dm + r % dm, c, s] for r, c, s in out["coaction"]]
    return out


def session_text(template, seed, rng):
    """Text of one generated session; rng supplies the seed's choices."""
    raw = template_path(template).read_text()
    doc = json.loads(raw)
    name = doc["hopf"]["name"]
    dim = hopf_constants(name)["dim"]
    perm = rng.sample(range(dim), dim)
    prime = rng.choice(DEEP_PRIMES) if template == "h4_gf_deep" else None
    if template in CANONICAL_ORDER:
        perm = list(range(dim))
    if seed == 0:
        return raw
    doc["hopf"] = relabel_hopf(hopf_constants(name), perm)
    doc["coefficients"] = [relabel_coefficient(c, perm) for c in doc.get("coefficients", [])]
    if prime is not None:
        doc["field"] = {"kind": "GF", "p": prime}
    return json.dumps(doc) + "\n"


def write_sessions(workload, seed, directory):
    """Write the workload's sessions for this seed; returns [(template, path)]."""
    rng = random.Random(seed)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for template in WORKLOADS[workload]:
        path = directory / f"{template}.session"
        path.write_text(session_text(template, seed, rng))
        out.append((template, path))
    return out
