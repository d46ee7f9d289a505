"""Run one ``sphgp`` command through ``sphgp.cli.main`` in this process.

    python3 perfbench/child.py plain|traced|setup RECORD.json -- <sphgp arguments>

The benchmark starts one fresh child per command. Every mode writes
``RECORD.json`` when the command ends, with the monotonic-clock times at
which ``main`` was entered and left, the first entry into ``vargp.fit`` and
``vargp.predict`` (the end of set-up), the model shape those calls saw and
the peak resident memory of this process. ``setup`` stops the command at
that first entry, so set-up can be sampled more often than whole commands.

``traced`` also wraps the public functions of each layer, from here and
without editing the package: the CLI and the library call them through
module attributes (``V.fit``, ``H.features``, ``backend.gegenbauer_last``)
or module globals (``elbo_gradients``, ``predict``), so replacing the
attribute routes every call through the wrapper. Spans stay in memory and
go into the record at the end. After the command it measures, untraced,
what the phase gradients add to one ``elbo_gradients`` call.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from sphgp import backend, checkpoint, cli, data_io, harmonics, vargp  # noqa: E402

# (module, attribute, span name); the span names are the layer names the
# benchmark reports.
TRACED = (
    (data_io, "load_csv", "data_io.load_csv"),
    (vargp, "build_inducing_model", "harmonics.build_basis"),
    (harmonics, "features", "harmonics.features"),
    (backend, "gegenbauer_last", "backend.gegenbauer_last"),
    (vargp, "elbo_gradients", "vargp.elbo_gradients"),
    (vargp, "fit", "vargp.fit"),
    (vargp, "predict", "vargp.predict"),
    (vargp, "evaluate", "vargp.evaluate"),
    (checkpoint, "save_checkpoint", "checkpoint.save"),
    (checkpoint, "load_checkpoint", "checkpoint.load"),
)
PHASE_REPEATS = 3
MODES = ("plain", "traced", "setup")


class SetupReached(BaseException):
    """Ends a ``setup`` command; not an Exception, so the CLI cannot catch it."""


def peak_rss_kb() -> int:
    """Peak resident memory of this process image, in KiB.

    ``VmHWM`` rather than ``ru_maxrss``: after a vfork-and-exec, Linux keeps
    the parent's peak in ``ru_maxrss``, so a large benchmark process would
    inflate every child's figure.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _shape(model, rows):
    return {
        "M": int(model.num_features),
        "N": int(rows),
        "d": int(model.basis.dim),
        "lmax": int(model.basis.max_frequency),
    }


class Recorder:
    """What one command leaves behind: boundary marks, spans and probes."""

    def __init__(self, mode: str):
        self.traced = mode == "traced"
        self.setup_only = mode == "setup"
        self.spans = []
        self._stack = []
        self._originals = []
        self.marks = {}
        self.shape = None
        self.fit_call = None  # (args, result) of the last vargp.fit
        self.predict_peak_bytes = 0

    def _wrap(self, module, attr, inner):
        self._originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, inner)

    def install(self):
        fit, predict = vargp.fit, vargp.predict

        def marked_fit(model, X, y, likelihood, config, *rest, **kw):
            self.marks.setdefault("fit_enter", time.monotonic())
            self.shape = _shape(model, config.batch_size)
            if self.setup_only:
                raise SetupReached
            result = fit(model, X, y, likelihood, config, *rest, **kw)
            self.fit_call = ((model, X, y, likelihood, config), result)
            return result

        def marked_predict(model, state, X, *rest, **kw):
            self.marks.setdefault("predict_enter", time.monotonic())
            if self.shape is None:
                self.shape = _shape(model, len(X))
            if self.setup_only:
                raise SetupReached
            if not self.traced or tracemalloc.is_tracing():
                return predict(model, state, X, *rest, **kw)
            tracemalloc.start()
            try:
                return predict(model, state, X, *rest, **kw)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.predict_peak_bytes = max(self.predict_peak_bytes, peak)

        self._wrap(vargp, "fit", marked_fit)
        self._wrap(vargp, "predict", marked_predict)
        if self.traced:
            for module, attr, name in TRACED:
                self._wrap(module, attr, self._span(name, getattr(module, attr)))

    def uninstall(self):
        while self._originals:
            module, attr, fn = self._originals.pop()
            setattr(module, attr, fn)

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            span = {
                "name": name,
                "start": time.monotonic(),
                "end": None,
                "parent": self._stack[-1] if self._stack else None,
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.monotonic()
                self._stack.pop()

        return wrapper


def phase_gradient_seconds(fit_call):
    """Median extra time of one ``elbo_gradients`` call due to trained phases.

    Times the call on the trained state and on a copy with ``phases={}``,
    on the first training batch, untraced.
    """
    (model, X, y, likelihood, config), result = fit_call
    batch = slice(0, config.batch_size)
    without = result.state.copy()
    without.phases = {}

    def once(state):
        start = time.monotonic()
        vargp.elbo_gradients(result.model, state, X[batch], y[batch], likelihood, len(X))
        return time.monotonic() - start

    return statistics.median(
        once(result.state) - once(without) for _ in range(PHASE_REPEATS)
    )


def main(argv) -> int:
    if len(argv) < 3 or argv[0] not in MODES or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    recorder = Recorder(argv[0])
    record_path = Path(argv[1])
    recorder.install()
    code = 1
    main_enter = time.monotonic()
    try:
        code = cli.main(argv[3:])
    except SetupReached:
        code = 0
    finally:
        main_exit = time.monotonic()
        recorder.uninstall()
        record = {
            "exit_code": code,
            "main_enter": main_enter,
            "main_exit": main_exit,
            "peak_rss_kb": peak_rss_kb(),
            "shape": recorder.shape,
            **recorder.marks,
        }
        if recorder.traced:
            record["spans"] = recorder.spans
            record["predict_peak_bytes"] = recorder.predict_peak_bytes
            if code == 0 and recorder.fit_call is not None:
                record["phase_gradients_s"] = phase_gradient_seconds(recorder.fit_call)
        record_path.write_text(json.dumps(record), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
