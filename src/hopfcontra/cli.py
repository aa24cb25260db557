"""Batch front door: run checks and computations from session files.

Subcommands mirror the task vocabulary of the session format.  The direct
subcommands run one task against everything applicable in the session;
`report` runs the session's own declared task list.  Output is a structured
text rendering and a canonical JSON document; the canonical form is fully
deterministic (sorted keys, no timestamps) so repeated runs are
byte-identical.

Exit codes: 0 all verdicts pass, 1 verdict failure, 3 parse error,
4 validation error, 5 task error.  (2 is taken by usage errors.)
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager
from dataclasses import replace

import click

from . import __version__
from .ayd import (AydCoefficient, AydModuleData, check_ayd_compatibility,
                  check_ayd_module, check_stability)
from .cyclic import (MODES, build_cocyclic_complex, build_cyclic_complex,
                     check_module_algebra, check_module_coalgebra,
                     dim_cap, homology_dims, verify_cyclic_relations)
from .errors import (HopfContraError, ParseError, TaskError, ValidationError)
from .homconn import (build_ayd_coring, build_dga, check_coring, check_dimension_cap,
                      check_leibniz, coring_contramodule_equivalence,
                      curvature_and_flatness, hom_connection_from_contramodule)
from .hopf import check_hopf_axioms
from .report import NOTES, Report
from .reps import check_comodule, check_contramodule, check_module
from .session import SessionData, TaskSpec, declared_kind, load_session

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_PARSE = 3
EXIT_VALIDATION = 4
EXIT_TASK = 5


def _pick_coefficients(session: SessionData, task: TaskSpec, flavour=None):
    """Resolve the task's coefficient list: the named one, or all applicable."""
    if task.coefficient is not None:
        ids = [task.coefficient]
    else:
        ids = list(session.coefficient_order)
    picked = []
    for cid in ids:
        coeff = session.coefficients[cid]
        if flavour is not None:
            if not isinstance(coeff, AydCoefficient) or coeff.flavour.code != flavour:
                if task.coefficient is not None:
                    raise TaskError(
                        f"coefficient {cid!r} is not a {flavour} contramodule")
                continue
        picked.append((cid, coeff))
    if flavour is not None and not picked:
        raise TaskError(f"session has no {flavour} contramodule coefficient")
    return picked


def _run_check(session: SessionData, task: TaskSpec) -> Report:
    rep = Report("check")
    rep.extend(check_hopf_axioms(session.hopf), prefix="hopf")
    if session.module_coalgebra is not None:
        rep.extend(check_module_coalgebra(session.module_coalgebra),
                   prefix="module coalgebra")
    if session.module_algebra is not None:
        rep.extend(check_module_algebra(session.module_algebra),
                   prefix="module algebra")
    for cid, coeff in _pick_coefficients(session, task):
        prefix = f"coefficient {cid}"
        if isinstance(coeff, AydCoefficient):
            own = Report("own axioms")
            own.extend(check_module(coeff.action), prefix="action")
            own.extend(check_contramodule(coeff.alpha), prefix="alpha")
            rep.extend(own, prefix=prefix)
            if own.ok:
                rep.extend(check_ayd_compatibility(coeff), prefix=prefix)
                rep.extend(check_stability(coeff), prefix=prefix)
        else:
            own = Report("own axioms")
            own.extend(check_module(coeff.action), prefix="action")
            own.extend(check_comodule(coeff.coaction), prefix="coaction")
            rep.extend(own, prefix=prefix)
            if own.ok:
                rep.extend(check_ayd_module(coeff), prefix=prefix)
                rep.extend(check_stability(coeff), prefix=prefix)
    return rep


def _build(session: SessionData, task: TaskSpec, kind: str, coeff: AydCoefficient):
    if kind == "cyclic":
        if session.module_coalgebra is None:
            raise TaskError("session declares no module_coalgebra")
        return build_cyclic_complex(session.module_coalgebra, coeff,
                                    max_degree=task.max_degree,
                                    allow_unstable=task.allow_unstable)
    if session.module_algebra is None:
        raise TaskError("session declares no module_algebra")
    return build_cocyclic_complex(session.module_algebra, coeff,
                                  max_degree=task.max_degree,
                                  allow_unstable=task.allow_unstable)


def _run_complex(session: SessionData, task: TaskSpec) -> Report:
    """build-cyclic, build-cocyclic and homology tasks.

    Each complex is built and verified once per session: a later task with
    the same kind, coefficient, degree and stability override reuses it.
    """
    kind = task.kind if task.task == "homology" else task.task[len("build-"):]
    kind = kind or declared_kind(session)
    if kind is None:
        raise TaskError("homology needs --kind when the session declares "
                        "both or neither complex structure")
    rep = Report(task.task)
    flavour = "lr" if kind == "cyclic" else "ll"
    for cid, coeff in _pick_coefficients(session, task, flavour=flavour):
        with _task_errors(coefficient=cid):
            key = (kind, cid, task.max_degree, task.allow_unstable)
            if key not in session.complexes:
                cx = _build(session, task, kind, coeff)
                session.complexes[key] = (cx, verify_cyclic_relations(cx))
            cx, relations = session.complexes[key]
            rep.table(f"coefficient {cid}: equivariant dimensions", cx.dims)
            rep.extend(relations, prefix=f"coefficient {cid}")
            if task.task == "homology":
                dims = homology_dims(cx, mode=task.mode)
                rep.table(f"coefficient {cid}: {task.mode} homology dimensions", dims)
    return rep


def _run_homconn(session: SessionData, task: TaskSpec) -> Report:
    rep = Report("homconn")
    check_dimension_cap(session.hopf)
    coring = build_ayd_coring(session.hopf)
    rep.extend(check_coring(coring), prefix="coring")
    dga = build_dga(session.hopf)
    rep.table("form dimensions", [dga.omega_dim(n) for n in range(3)])
    rep.add("degree raising maps compose to zero", (dga.d1 @ dga.d0).is_zero())
    for cid, coeff in _pick_coefficients(session, task, flavour="rr"):
        prefix = f"coefficient {cid}"
        with _task_errors(coefficient=cid):
            rep.extend(coring_contramodule_equivalence(coring, coeff), prefix=prefix)
            hc = hom_connection_from_contramodule(coeff, dga)
            rep.extend(check_leibniz(hc), prefix=prefix)
            _, flat = curvature_and_flatness(hc)
            rep.extend(flat, prefix=prefix)
    return rep


_RUNNERS = {
    "check": _run_check,
    "build-cyclic": _run_complex,
    "build-cocyclic": _run_complex,
    "homology": _run_complex,
    "homconn": _run_homconn,
}


@contextmanager
def _task_errors(coefficient=None):
    """Turn a module error into a TaskError naming its type and, when given,
    the coefficient being worked on."""
    try:
        yield
    except (ParseError, ValidationError, TaskError):
        raise
    except HopfContraError as e:
        raise TaskError(f"{type(e).__name__}: {e}", coefficient=coefficient) from e


def _run_task(session: SessionData, task: TaskSpec) -> Report:
    with _task_errors():
        return _RUNNERS[task.task](session, task)


def _task_label(task: TaskSpec):
    label = task.task
    if task.coefficient is not None:
        label += f" [{task.coefficient}]"
    return label


def _canonical_document(session: SessionData, results):
    notes = sorted({nid for _, rep in results for nid in rep.notes})
    return {
        "tool": "hopfcontra",
        "version": __version__,
        "input": {"path": os.path.basename(session.path),
                  "sha256": session.digest},
        "tasks": [dict(rep.as_json(), task=label) for label, rep in results],
        "errata": [{"id": nid, "text": NOTES[nid]} for nid in notes],
        "ok": all(rep.ok for _, rep in results),
    }


def _canonical_text(document):
    return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"


def _format_witness(witness):
    return json.dumps(witness, sort_keys=True, separators=(",", ":"))


def _text_document(session: SessionData, results):
    lines = [f"hopfcontra {__version__}",
             f"input: {os.path.basename(session.path)}",
             f"sha256: {session.digest}"]
    all_ok = True
    notes = []
    for label, rep in results:
        lines.append("")
        lines.append(f"== {label} ==")
        for name, values in rep.tables.items():
            lines.append(f"table {name}: {' '.join(str(v) for v in values)}")
        for v in rep.verdicts:
            if v.passed:
                lines.append(f"pass {v.name}")
            else:
                lines.append(f"FAIL {v.name}  {_format_witness(v.witness)}"
                             if v.witness is not None else f"FAIL {v.name}")
        passed = sum(1 for v in rep.verdicts if v.passed)
        lines.append(f"result: {'pass' if rep.ok else 'FAIL'} "
                     f"({passed}/{len(rep.verdicts)} verdicts)")
        all_ok = all_ok and rep.ok
        for nid in rep.notes:
            if nid not in notes:
                notes.append(nid)
    if notes:
        lines.append("")
        for nid in sorted(notes):
            lines.append(f"note {nid}: {NOTES[nid]}")
    lines.append("")
    lines.append(f"overall: {'pass' if all_ok else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _load(session_path):
    """The session, after the dimension cap in the environment; a bad value
    of either is a validation error."""
    try:
        dim_cap()
        return load_session(session_path)
    except ParseError as e:
        where = ""
        if e.line is not None:
            where = f" at line {e.line} column {e.column}"
        click.echo(f"parse error{where}: {e}", err=True)
        sys.exit(EXIT_PARSE)
    except ValidationError as e:
        where = f" at {e.path}" if e.path else ""
        click.echo(f"validation error{where}: {e}", err=True)
        sys.exit(EXIT_VALIDATION)


def _execute(session_path, tasks, out, fmt, allow_unstable=False):
    session = _load(session_path)
    if tasks is None:
        tasks = session.tasks
        if not tasks:
            click.echo("task error: session declares no tasks", err=True)
            sys.exit(EXIT_TASK)
    if allow_unstable:
        tasks = [replace(t, allow_unstable=True) for t in tasks]
    results = []
    for k, task in enumerate(tasks, 1):
        label = _task_label(task)
        try:
            results.append((label, _run_task(session, task)))
        except TaskError as e:
            if e.coefficient is not None and task.coefficient is None:
                label += f" [{e.coefficient}]"
            click.echo(f"task error: {e} (task {k}: {label})", err=True)
            sys.exit(EXIT_TASK)
    document = _canonical_document(session, results)
    text = _text_document(session, results)
    canonical = _canonical_text(document)
    if out is not None:
        with open(f"{out}.txt", "w") as fh:
            fh.write(text)
        with open(f"{out}.json", "w") as fh:
            fh.write(canonical)
    else:
        click.echo(canonical if fmt == "canonical" else text, nl=False)
    sys.exit(EXIT_OK if document["ok"] else EXIT_VERDICT)


def _common(f):
    f = click.argument("session", type=click.Path(exists=True, dir_okay=False))(f)
    f = click.option("--out", type=click.Path(), default=None,
                     help="Write PATH.txt and PATH.json instead of stdout.")(f)
    f = click.option("--format", "fmt", type=click.Choice(["text", "canonical"]),
                     default="text", help="Stdout format.")(f)
    return f


@click.group()
@click.version_option(__version__, prog_name="hopfcontra")
def main():
    """Exact checks and builds for Hopf-type structures from session files."""


@main.command()
@_common
def check(session, out, fmt):
    """Run every applicable axiom, compatibility, and stability suite."""
    _execute(session, [TaskSpec(task="check")], out, fmt)


@main.command("build-cyclic")
@_common
@click.option("--max-degree", default=3, show_default=True,
              help="Top degree of the constructed complex.")
@click.option("--allow-unstable", is_flag=True,
              help="Build even when the coefficient fails stability.")
def build_cyclic(session, out, fmt, max_degree, allow_unstable):
    """Construct the equivariant complex over the module coalgebra and
    verify the full simplicial and cyclic relation lists."""
    _execute(session, [TaskSpec(task="build-cyclic", max_degree=max_degree,
                                allow_unstable=allow_unstable)], out, fmt)


@main.command("build-cocyclic")
@_common
@click.option("--max-degree", default=3, show_default=True,
              help="Top degree of the constructed complex.")
@click.option("--allow-unstable", is_flag=True,
              help="Build even when the coefficient fails stability.")
def build_cocyclic(session, out, fmt, max_degree, allow_unstable):
    """Construct the equivariant complex over the module algebra and
    verify the full cosimplicial and cocyclic relation lists."""
    _execute(session, [TaskSpec(task="build-cocyclic", max_degree=max_degree,
                                allow_unstable=allow_unstable)], out, fmt)


@main.command()
@_common
@click.option("--max-degree", default=3, show_default=True,
              help="Top degree of the constructed complex.")
@click.option("--mode", type=click.Choice(MODES),
              default="hochschild", show_default=True,
              help="Which dimension table to compute.")
@click.option("--kind", type=click.Choice(["cyclic", "cocyclic"]), default=None,
              help="Complex to use when the session declares both.")
@click.option("--allow-unstable", is_flag=True,
              help="Build even when the coefficient fails stability.")
def homology(session, out, fmt, max_degree, mode, kind, allow_unstable):
    """Build, verify relations, and compute homology dimension tables."""
    _execute(session, [TaskSpec(task="homology", max_degree=max_degree,
                                mode=mode, kind=kind,
                                allow_unstable=allow_unstable)], out, fmt)


@main.command()
@_common
def homconn(session, out, fmt):
    """Build the coring and calculus, then the hom-connection and its
    curvature for every right-right coefficient."""
    _execute(session, [TaskSpec(task="homconn")], out, fmt)


@main.command()
@_common
@click.option("--allow-unstable", is_flag=True,
              help="Override the stability gate for every declared task.")
def report(session, out, fmt, allow_unstable):
    """Run the session's declared task list in order."""
    _execute(session, None, out, fmt, allow_unstable=allow_unstable)


if __name__ == "__main__":
    main()
