"""Session documents with explicit structure constants, built in the tests.

`taft_session` multiplies out the Taft algebra T_n(q) over GF(p) from its
generators: g^n = 1, x^n = 0, x g = q g x, with g grouplike and
Delta(x) = x (x) 1 + g (x) x.  Its basis element g^a x^b has index a*n + b.
`relabelled_session` writes a named example's constants under a permuted
basis, so that no index (the unit's, the grouplikes') sits where the
bundled examples put it.  `cyclic_group_session` writes the group algebra
of Z/n out in full, with a homconn task for the trivial rr coefficient.
"""

from fractions import Fraction

from hopfcontra.exactla import QQ
from hopfcontra.hopf import build_named_example


def _field_doc(p):
    return {"kind": "Q"} if p is None else {"kind": "GF", "p": p}


def _scalar(v, p):
    return v % p if p is not None else str(Fraction(v))


def _lr_coefficient(character, sigma, p):
    """One dimensional lr coefficient: basis element a acts by character[a],
    and alpha sends the elementary map at basis index sigma to one."""
    return {"id": "c", "kind": "contramodule", "flavour": "lr", "dim": 1,
            "action": [[a, 0, 0, _scalar(v, p)] for a, v in enumerate(character) if v],
            "alpha": [[0, sigma, _scalar(1, p)]]}


def _session(p, hopf, coefficient, max_degree):
    return {"field": _field_doc(p), "hopf": hopf,
            "module_coalgebra": {"name": "regular"},
            "coefficients": [coefficient],
            "tasks": [{"task": "homology", "coefficient": "c", "mode": "hochschild",
                       "max_degree": max_degree}]}


def taft_session(p, n, q, max_degree):
    """T_n(q) over GF(p), q a primitive n-th root of unity mod p, with the lr
    coefficient delta(g) = 1, sigma = g^(n-1) on the regular coalgebra."""
    d = n * n

    def times(u, v):
        # (g^a x^b)(g^c x^d) = q^(bc) g^(a+c) x^(b+d), zero once x^n appears
        (a, b), (c, e) = divmod(u, n), divmod(v, n)
        if b + e >= n:
            return None, 0
        return (a + c) % n * n + b + e, pow(q, b * c, p)

    def tensor_times(s, t):
        out = {}
        for (u1, u2), v in s.items():
            for (w1, w2), w in t.items():
                k1, c1 = times(u1, w1)
                k2, c2 = times(u2, w2)
                if k1 is not None and k2 is not None:
                    out[k1, k2] = (out.get((k1, k2), 0) + v * w * c1 * c2) % p
        return {k: v for k, v in out.items() if v}

    g, x = n, 1
    delta_g, delta_x = {(g, g): 1}, {(x, 0): 1, (g, x): 1}
    mul, comul, antipode = [], [], []
    for u in range(d):
        a, b = divmod(u, n)
        for v in range(d):
            k, c = times(u, v)
            if k is not None:
                mul.append([u, v, k, c])
        delta = {(0, 0): 1}
        for _ in range(a):
            delta = tensor_times(delta, delta_g)
        for _ in range(b):
            delta = tensor_times(delta, delta_x)
        comul += [[u, j, k, c] for (j, k), c in sorted(delta.items())]
        # S(g^a x^b) = S(x)^b S(g)^a with S(g) = g^(n-1), S(x) = -g^(n-1) x
        s = {0: 1}
        for factor in [((n - 1) * n + 1, p - 1)] * b + [((n - 1) * n, 1)] * a:
            nxt = {}
            for w, c in s.items():
                k, e = times(w, factor[0])
                if k is not None:
                    nxt[k] = (nxt.get(k, 0) + c * e * factor[1]) % p
            s = {k: c for k, c in nxt.items() if c}
        antipode += [[k, u, c] for k, c in sorted(s.items())]
    unit = [1] + [0] * (d - 1)
    counit = [1 if u % n == 0 else 0 for u in range(d)]
    hopf = {"dim": d, "mul": mul, "unit": unit, "comul": comul, "counit": counit,
            "antipode": antipode}
    return _session(p, hopf, _lr_coefficient(counit, (n - 1) * n, p), max_degree)


def relabelled_session(name, perm, character, sigma, max_degree):
    """The named example over Q with old basis index i renamed perm[i], and
    the lr coefficient (character, sigma) given in the old indices."""
    h = build_named_example(name, QQ)
    d = h.dim
    mul = [[perm[col // d], perm[col % d], perm[k], str(v)]
           for k, col, v in h.mul.nonzero_entries()]
    comul = [[perm[i], perm[row // d], perm[row % d], str(v)]
             for row, i, v in h.comul.nonzero_entries()]
    antipode = [[perm[r], perm[c], str(v)] for r, c, v in h.antipode.nonzero_entries()]

    def moved(values):
        out = [0] * d
        for i, v in enumerate(values):
            out[perm[i]] = v
        return out

    hopf = {"dim": d, "mul": mul, "unit": [str(v) for v in moved(h.unit.col(0))],
            "comul": comul, "counit": [str(v) for v in moved(h.counit.data[0])],
            "antipode": antipode}
    return _session(None, hopf, _lr_coefficient(moved(character), perm[sigma], None),
                    max_degree)


def cyclic_group_session(p, n):
    """k[Z/n] over GF(p) with explicit constants, and a homconn task."""
    hopf = {"dim": n, "mul": [[i, j, (i + j) % n, 1] for i in range(n) for j in range(n)],
            "unit": [1] + [0] * (n - 1), "comul": [[i, i, i, 1] for i in range(n)],
            "counit": [1] * n, "antipode": [[(-i) % n, i, 1] for i in range(n)]}
    return {"field": _field_doc(p), "hopf": hopf,
            "coefficients": [{"id": "k", "kind": "contramodule", "flavour": "rr",
                              "name": "trivial"}],
            "tasks": [{"task": "homconn", "coefficient": "k"}]}
