"""One benchmark sample, run in a fresh process by run.py.

Set-up imports hopfcontra from the checkout's `src/` and loads every
session; `setup_s` times exactly that.  The timed part then runs
`hopfcontra report SESSION --out ...` through the cli entry point for each
session in turn, with the loader answering from the sessions set-up loaded,
so `wall_s` covers every task plus report rendering and no loading.  Peak
memory is this process's own `ru_maxrss`.

The machine's speed drifts by tens of percent within seconds, so both times
are scaled to a reference speed.  A speed probe times a fixed unit of work:
in bursts around set-up, and from a SIGALRM handler every PROBE_PERIOD_S
seconds of the timed part, in the same thread and on the same core as the
program.  Scaled time is raw time (less the probes' own time) times
REFERENCE_PROBE_S times the mean of 1 / probe duration.  The process stays
single-threaded.

The last line of stdout is one JSON object with the figures and exit codes.

    python3 perfbench/sample.py --spec SPEC.json
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter


# Mean probe duration on the machine the benchmark was written on (2-core
# KVM Xeon, Python 3.11.7); scaled times are in seconds at that speed.
REFERENCE_PROBE_S = 6.0e-4
PROBE_PERIOD_S = 0.05
BURST = 16
POOL = 1 << 16
WINDOW = 4096
FRACTIONS = 64


class SpeedProbe:
    """Durations of a fixed probe unit, taken in bursts or on a timer.

    The unit mimics the program's inner loops: an elementwise pass mod p over
    a window that walks a 1 MB pool of list slots, and a short pass of
    Fraction products and sums.
    """

    def __init__(self):
        self.durations = []
        self.xs = [i % 251 for i in range(POOL)]
        self.ys = self.xs[::-1]
        self.fs = [Fraction(i % 13 + 1, 7) for i in range(FRACTIONS)]
        self.pos = 0

    def _unit(self):
        o = self.pos
        self.pos = (o + WINDOW) % POOL
        ints = [(a + b) % 7 for a, b in zip(self.xs[o:o + WINDOW], self.ys[o:o + WINDOW])]
        fracs = [a * b + a for a, b in zip(self.fs, reversed(self.fs))]
        return ints, fracs

    def _once(self, *_):
        t = perf_counter()
        self._unit()
        self.durations.append(perf_counter() - t)

    def burst(self):
        for _ in range(BURST):
            self._once()

    def start(self):
        signal.signal(signal.SIGALRM, self._once)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def take(self):
        """(probe time spent, scale factor to the reference speed); resets."""
        d, self.durations = self.durations, []
        return sum(d), REFERENCE_PROBE_S * sum(1 / x for x in d) / len(d)


def _resident_mb():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize() / (1024.0 * 1024.0)


def _matrix_rows(m):
    return [[v if isinstance(v, int) else str(Fraction(v)) for v in row] for row in m.data]


def _dump_complexes(captured, path):
    out = []
    for template, kind, mode, dims, faces, cyclers in captured:
        out.append({
            "session": template, "kind": kind, "mode": mode, "dims": dims,
            "faces": {str(n): [_matrix_rows(m) for m in ops] for n, ops in faces.items()},
            "cyclers": ({str(n): _matrix_rows(m) for n, m in cyclers.items()}
                        if cyclers is not None else None),
        })
    Path(path).write_text(json.dumps(out))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--spec", required=True)
    spec = json.loads(Path(ap.parse_args(argv).spec).read_text())
    sessions = spec["sessions"]
    out_dir = Path(spec["out"])
    out_dir.mkdir(parents=True, exist_ok=True)

    before = _resident_mb()
    probe = SpeedProbe()
    probe_mb = _resident_mb() - before
    probe.burst()
    t0 = perf_counter()
    sys.path.insert(0, spec["src"])
    rec = None
    if spec["trace"]:
        import spans
        rec = spans.install(spec["workload"])
    from hopfcontra import cli
    loaded = {}
    for template, path in sessions:
        if rec is not None:
            rec.session = template
        loaded[path] = cli.load_session(path)
    raw_setup_s = perf_counter() - t0
    probe.burst()
    _, scale = probe.take()
    setup_s = raw_setup_s * scale
    if spec.get("setup_only"):
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return

    real_load = cli.load_session
    cli.load_session = lambda p: loaded[p] if p in loaded else real_load(p)

    # In the sample that dumps them, keep the restricted operators of every
    # homology task for the independent checks; only references are held, so
    # nothing is copied inside the timed part.
    captured = []
    current = [None]
    if spec.get("dump_complexes"):
        homology_dims = cli.homology_dims

        def capture(cx, mode="hochschild"):
            dims = homology_dims(cx, mode=mode)
            captured.append((current[0], cx.kind, mode, list(cx.dims), cx.faces,
                             cx.cyclers if mode == "connes" else None))
            return dims

        cli.homology_dims = capture

    codes = {}
    errors = {}
    clock = rec.now if rec is not None else perf_counter
    probe.start()
    t1 = clock()
    for template, path in sessions:
        current[0] = template
        if rec is not None:
            rec.session = template
        try:
            cli.main(["report", path, "--out", str(out_dir / template)],
                     standalone_mode=False)
            codes[template] = None
        except SystemExit as e:
            codes[template] = e.code
        except Exception:  # a crash of the program is a failed operation, not a bench crash
            codes[template] = "crash"
            errors[template] = traceback.format_exc(limit=3)
    elapsed = clock() - t1
    probe.stop()
    # the probe's pool stays resident throughout, so it adds to the peak
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - probe_mb
    probe_s, scale = probe.take()
    raw_wall_s = elapsed - probe_s

    result = {"setup_s": setup_s, "wall_s": raw_wall_s * scale, "peak_rss_mb": peak_rss_mb,
              "raw_setup_s": raw_setup_s, "raw_wall_s": raw_wall_s,
              "probe_s": REFERENCE_PROBE_S / scale, "codes": codes, "errors": errors}
    if spec.get("dump_complexes"):
        _dump_complexes(captured, out_dir / "complexes.json")
    if rec is not None:
        import spans
        # span times are scaled like wall_s, so shares of it read directly
        result["layers"] = {k: v * scale if k.endswith("_s") else v
                            for k, v in spans.layer_metrics(rec).items()}
        spans.write_jsonl(rec, out_dir / "spans.jsonl")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
