"""Pass/fail verdicts with witnesses, grouped into reports.

Every checker in the package returns a Report: an ordered list of named
verdicts, optional dimension tables, and convention notes.  A witness pins
a failure to concrete basis indices and the two differing scalars, so a
broken axiom can be traced to the structure constant that violates it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exactla import Matrix, split_index

# Convention notes, emitted at most once per report by the code paths that
# rely on them.  Keyed by a stable id so reports stay byte-identical.
NOTES = {
    "theta-convention": (
        "currying convention: Theta(f)(c (x) c') = f(c)(c'), the outer hom "
        "argument is consumed first; Theta' consumes the inner argument first."
    ),
    "module-algebra-two-factors": (
        "module-algebra law checked as h.(a a') = (h_(1).a)(h_(2).a') with "
        "independent factors a and a'."
    ),
    "ayd-twisted-condition": (
        "module-side duality checks the antipode-twisted compatibility "
        "rho(x.h) = S(h_(3)) x_(-1) h_(1) (x) x_(0).h_(2), not the untwisted "
        "Yetter-Drinfeld condition."
    ),
    "hom-right-action-associativity": (
        "the right action on Hom(A, M) is checked associatively as "
        "(f.a).a' = f.(a a')."
    ),
}


def first_difference(lhs: Matrix, rhs: Matrix, row_dims=None, col_dims=None):
    """Witness for lhs != rhs, or None when the matrices agree.

    row_dims / col_dims optionally decompose flat indices into tensor slots.
    """
    if lhs.shape != rhs.shape:
        return {"shape": [list(lhs.shape), list(rhs.shape)]}
    at = lhs.first_difference(rhs)
    if at is None:
        return None
    return _witness(*at, lhs.entry(*at), rhs.entry(*at), row_dims, col_dims)


def _witness(i, j, lhs, rhs, row_dims, col_dims):
    witness = {"row": i, "col": j, "lhs": str(lhs), "rhs": str(rhs)}
    if row_dims:
        witness["row_index"] = split_index(i, row_dims)
    if col_dims:
        witness["col_index"] = split_index(j, col_dims)
    return witness


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    witness: dict | None = None

    def as_json(self):
        out = {"name": self.name, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class Report:
    title: str
    verdicts: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def add(self, name, passed, witness=None):
        self.verdicts.append(Verdict(name, bool(passed), witness))
        return self

    def compare(self, name, lhs, rhs, row_dims=None, col_dims=None):
        """Add a verdict asserting two matrices are equal, with a witness."""
        witness = first_difference(lhs, rhs, row_dims, col_dims)
        self.add(name, witness is None, witness)
        return witness is None

    def compare_columns(self, name, lhs, rhs, row_dims=None, col_dims=None):
        """`compare` on two matrices of one shape given as lists of sparse
        {row: scalar} columns, with the same witness, forming neither."""
        at = min(((min(i for i in l.keys() | r.keys() if l.get(i) != r.get(i)), j)
                  for j, (l, r) in enumerate(zip(lhs, rhs)) if l != r), default=None)
        self.add(name, at is None, at and _witness(
            *at, lhs[at[1]].get(at[0], 0), rhs[at[1]].get(at[0], 0), row_dims, col_dims))
        return at is None

    def note(self, note_id):
        if note_id not in NOTES:
            raise KeyError(f"unknown note id {note_id!r}")
        if note_id not in self.notes:
            self.notes.append(note_id)
        return self

    def table(self, name, values):
        self.tables[name] = values
        return self

    def extend(self, other: "Report", prefix=None):
        for v in other.verdicts:
            name = f"{prefix}: {v.name}" if prefix else v.name
            self.verdicts.append(Verdict(name, v.passed, v.witness))
        for name, values in other.tables.items():
            self.tables[f"{prefix}: {name}" if prefix else name] = values
        for note_id in other.notes:
            if note_id not in self.notes:
                self.notes.append(note_id)
        return self

    @property
    def ok(self):
        return all(v.passed for v in self.verdicts)

    def failures(self):
        return [v for v in self.verdicts if not v.passed]

    def as_json(self):
        out = {
            "title": self.title,
            "verdicts": [v.as_json() for v in self.verdicts],
            "ok": self.ok,
        }
        if self.tables:
            out["tables"] = self.tables
        if self.notes:
            out["notes"] = sorted(self.notes)
        return out
