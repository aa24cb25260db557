"""Span recorder that traces hopfcontra from outside the package.

`install` wraps the public functions of the traced modules, the Matrix
arithmetic and reindexing operators, and the cli task runner, and rebinds
every name under which any package module holds one of them (so `cyclic.kron`,
`cyclic._middle_homology` and `homconn._transport_operator` are seen as well
as `exactla.kron`).  Spans stay in memory; `layer_metrics` folds them into
per-layer figures and `write_jsonl` dumps them when the sample ends.

All span times use a clock that stops while results are measured (shapes
and nonzero counts), so counting costs nothing in any span; that excluded
time is reported on its own as `trace.count_s`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from time import perf_counter

TRACED_MODULES = ("session", "hopf", "reps", "ayd", "cyclic", "exactla", "homconn")
# Every module whose namespace may hold an imported traced function.
ALL_MODULES = TRACED_MODULES + ("cli", "report")

# Private functions that another module imports by name.
EXTRA_FUNCTIONS = {"ayd": ("_transport_operator",)}

MATRIX_GROUPS = {
    "elementwise": ("__add__", "__sub__", "__neg__", "scale"),
    "matmul": ("__matmul__",),
    "reindex": ("transpose",),
}
EXACTLA_GROUPS = {
    "kron": ("kron",),
    "reindex": ("hstack", "vstack", "permute_rows", "permute_cols",
                "tensor_permutation", "tensor_permutation_map"),
    "elimination": ("rank_kernel_image", "rank_of", "solve_columns", "inverse",
                    "homology_dims", "quotient_projection"),
}
# The elimination entry points that each run one echelon form of their input.
ECHELON_FUNCTIONS = ("rank_kernel_image", "rank_of", "solve_columns")


def _matrix_cells(m):
    return m.rows * m.cols


def _matrix_nonzeros(m):
    return sum(1 for row in m.data for v in row if v)


class Recorder:
    """In-memory spans: [name, start, end, parent, session, task, cells, nnz, extra]."""

    def __init__(self, workload):
        self.workload = workload
        self.spans = []
        self.stack = []
        self.excluded = 0.0
        self.session = None
        self.task = None
        self.group = {}

    def now(self):
        return perf_counter() - self.excluded

    def wrap(self, name, func, measure=None):
        rec = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = rec.stack
            span = [name, rec.now(), 0.0, stack[-1] if stack else -1,
                    rec.session, rec.task, 0, 0, 0]
            stack.append(len(rec.spans))
            rec.spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = rec.now()
                stack.pop()
            if measure is not None:
                t0 = perf_counter()
                span[6], span[7], span[8] = measure(args, result)
                rec.excluded += perf_counter() - t0
            return result

        return traced


def _measure_matrix(args, result):
    if hasattr(result, "data") and hasattr(result, "rows"):
        return _matrix_cells(result), _matrix_nonzeros(result), 1
    return 0, 0, 0


def _measure_echelon(args, result):
    # cells of the echelon working copy, worked out from the input shapes
    m = args[0]
    cols = m.cols + (args[1].cols if len(args) > 1 else 0)
    return m.rows * cols, 0, 0


def _measure_rep(args, result):
    mats = getattr(result, "matrices", [])
    return sum(_matrix_cells(m) for m in mats), 0, 0


def _measure_basis(args, result):
    return 0, 0, getattr(result, "ambient", 0)


def _measure_report(args, result):
    return 0, 0, len(getattr(result, "verdicts", ()))


CYCLIC_MEASURES = {
    "diagonal_power": _measure_rep,
    "equivariant_hom_basis": _measure_basis,
    "verify_cyclic_relations": _measure_report,
}


def install(workload):
    """Wrap the package in place; returns the Recorder collecting spans."""
    rec = Recorder(workload)
    mods = {m: importlib.import_module(f"hopfcontra.{m}") for m in ALL_MODULES}
    replace = {}

    for mname in TRACED_MODULES:
        mod = mods[mname]
        names = [n for n, obj in vars(mod).items()
                 if inspect.isfunction(obj) and obj.__module__ == mod.__name__
                 and (not n.startswith("_") or n in EXTRA_FUNCTIONS.get(mname, ()))]
        for n in names:
            func = getattr(mod, n)
            measure = None
            if mname == "exactla":
                group = next((g for g, fs in EXACTLA_GROUPS.items() if n in fs), "other")
                rec.group[f"exactla.{n}"] = group
                if group != "elimination":
                    measure = _measure_matrix
                elif n in ECHELON_FUNCTIONS:
                    measure = _measure_echelon
            elif mname == "cyclic":
                measure = CYCLIC_MEASURES.get(n)
            replace[func] = rec.wrap(f"{mname}.{n}", func, measure)

    matrix = mods["exactla"].Matrix
    for group, methods in MATRIX_GROUPS.items():
        for n in methods:
            name = f"exactla.Matrix.{n}"
            rec.group[name] = group
            setattr(matrix, n, rec.wrap(name, vars(matrix)[n], _measure_matrix))

    for mod in mods.values():
        for n, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replace:
                setattr(mod, n, replace[obj])

    cli = mods["cli"]
    cli._execute = rec.wrap("cli.report", cli._execute)
    run_task = rec.wrap("cli.task", cli._run_task)

    def labelled(session, task):
        rec.task = cli._task_label(task)
        try:
            return run_task(session, task)
        finally:
            rec.task = None

    cli._run_task = labelled
    return rec


def write_jsonl(rec, path):
    with open(path, "w") as fh:
        for i, (name, start, end, parent, session, task, cells, nnz, extra) in enumerate(rec.spans):
            fh.write(json.dumps({
                "id": i, "name": name, "start": start, "end": end, "parent": parent,
                "workload": rec.workload, "session": session, "task": task,
                "cells": cells, "nonzeros": nnz, "extra": extra,
            }, separators=(",", ":")) + "\n")


def _under(spans, names):
    """flags[i] is True when some ancestor of span i is named in `names`."""
    flags = []
    for s in spans:
        p = s[3]
        flags.append(p >= 0 and (spans[p][0] in names or flags[p]))
    return flags


def layer_metrics(rec):
    """Fold the spans into the per-layer metrics (seconds, counts, cells)."""
    spans = rec.spans
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    self_t = [d - c for d, c in zip(dur, child)]

    def outer(names):
        flags = _under(spans, names)
        return [i for i, s in enumerate(spans) if s[0] in names and not flags[i]]

    def inclusive(names):
        return sum(dur[i] for i in outer(names))

    def self_sum(names):
        return sum(self_t[i] for i, s in enumerate(spans) if s[0] in names)

    builders = {"cyclic.build_cyclic_complex", "cyclic.build_cocyclic_complex"}
    out = {}
    dp = outer({"cyclic.diagonal_power"})
    out["cyclic.diagonal_power_s"] = sum(dur[i] for i in dp)
    out["cyclic.diagonal_power_calls"] = len(dp)
    out["cyclic.diagonal_power_cells"] = sum(spans[i][6] for i in dp)
    eq = outer({"cyclic.equivariant_hom_basis"})
    out["cyclic.equivariant_basis_s"] = sum(dur[i] for i in eq)
    out["cyclic.equivariant_basis_self_s"] = self_sum({"cyclic.equivariant_hom_basis"})
    out["cyclic.equivariant_basis_calls"] = len(eq)
    out["cyclic.ambient_dim_total"] = sum(spans[i][8] for i in eq)
    out["cyclic.builds"] = len(outer(builders))
    in_builder = _under(spans, builders)
    restrict = [i for i in outer({"exactla.solve_columns"}) if in_builder[i]]
    out["cyclic.restrict_s"] = sum(dur[i] for i in restrict)
    out["cyclic.restrict_calls"] = len(restrict)
    out["cyclic.assemble_self_s"] = self_sum(builders)
    ver = outer({"cyclic.verify_cyclic_relations"})
    out["cyclic.verify_s"] = sum(dur[i] for i in ver)
    out["cyclic.verdicts"] = sum(spans[i][8] for i in ver)
    out["cyclic.homology_s"] = inclusive({"cyclic.homology_dims"})

    groups = {}
    for name, g in rec.group.items():
        groups.setdefault(g, set()).add(name)
    for g in ("elimination", "elementwise", "matmul", "kron", "reindex"):
        out[f"exactla.{g}_s"] = self_sum(groups.get(g, set()))
    runs = [s for s in spans if s[0] in groups.get("elimination", set()) and s[6]]
    out["exactla.elimination_calls"] = len(runs)
    out["exactla.elimination_cells"] = sum(s[6] for s in runs)
    cells_all = nnz_all = 0
    for g in ("elementwise", "matmul", "kron", "reindex"):
        top = outer(groups.get(g, set()))
        if g == "matmul":
            out["exactla.matmul_calls"] = len(top)
        if g != "reindex":
            out[f"exactla.{g}_cells"] = sum(spans[i][6] for i in top)
        for i in top:
            if spans[i][8]:
                cells_all += spans[i][6]
                nnz_all += spans[i][7]
    out["exactla.nonzero_share"] = nnz_all / cells_all if cells_all else 0.0

    out["homconn.coring_s"] = inclusive({"homconn.build_ayd_coring", "homconn.check_coring"})
    out["homconn.calculus_s"] = inclusive({"homconn.build_dga"})
    out["homconn.connection_s"] = inclusive({
        "homconn.coring_contramodule_equivalence", "homconn.hom_connection_from_contramodule",
        "homconn.check_leibniz", "homconn.curvature_and_flatness"})
    out["hopf.axioms_s"] = inclusive({"hopf.check_hopf_axioms"})
    out["ayd.checks_s"] = inclusive({"ayd.check_ayd_compatibility", "ayd.check_ayd_module",
                                     "ayd.check_stability", "ayd.ensure_coefficient_checked"})
    out["reps.checks_s"] = inclusive({"reps.check_module", "reps.check_comodule",
                                      "reps.check_contramodule", "reps.check_module_comodule"})
    out["cli.self_s"] = self_sum({"cli.report", "cli.task"})
    out["session.load_s"] = inclusive({"session.load_session"})
    out["trace.spans"] = len(spans)
    out["trace.count_s"] = rec.excluded
    return out
