"""Per-layer tracing for the benchmark's traced runs, installed from outside the program.

Every public function of every ``icoswitch`` module is replaced by a wrapper
that records a span (name, start, end, parent), a call count and self time:
the span's duration minus what its traced children took.  The modules import
names directly (``from .qmat import herm_eig``), so a wrapper is installed in
every module namespace that holds the function, where callers look it up.
Three spans get names of their own: ``qmat.herm_eig.d2``/``.d4`` split the
eigensolver by matrix size, ``channels.kraus_check`` is the completeness
check ``KrausChannel.__post_init__``, and every state the SLD route builds
inside ``qfi_numeric`` is counted as ``metrology.state_build``.
"""

from __future__ import annotations

import gzip
import inspect
import json
import statistics
import sys
import time
from array import array
from collections import Counter

# Reported layer -> the spans it sums.  Each gets `.calls` and `.self_ms`.
COUNTED = {
    "qmat.herm_eig.d2": ("qmat.herm_eig.d2",),
    "qmat.herm_eig.d4": ("qmat.herm_eig.d4",),
    "qmat.as_cmatrix": ("qmat.as_cmatrix",),
    "channels.kraus_check": ("channels.kraus_check",),
    "channels.noisy_phase_channel": ("channels.noisy_phase_channel",),
    "channels.apply_channel": ("channels.apply_channel",),
    "channels.check_density": ("channels.check_density",),
    "switch.s01": ("switch.s01",),
    "switch.switch_state": ("switch.switch_state",),
    "metrology.qfi_numeric": ("metrology.qfi_numeric",),
    "metrology.cfi_numeric": ("metrology.cfi_numeric",),
    "metrology.closed_form": ("metrology.qfi_control", "metrology.cfi_control"),
}
# Spans reported by self time only.
TIMED = (
    "sweep.parse_config",
    "sweep.render_csv",
    "sweep.render_svg",
    *(
        f"selfcheck.check_{name}"
        for name in (
            "joint_state_oracle",
            "qc_closed_form",
            "qc_probe_independence",
            "qfi_closed_vs_sld",
            "measurement_optimality",
            "commuting_degeneracy",
            "cptp",
            "depolarizing_invariance",
            "symmetry_and_limits",
            "fig2_shape",
        )
    ),
    "cli.main",
)


class Tracer:
    """Spans, call counts and self time of the wrapped functions."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.recording = False  # keep every span, not only the sums
        self._open: list[list[int]] = []  # [span id, child ns] of the open spans
        self._names: dict[str, int] = {}
        self.span_name, self.span_parent = array("i"), array("i")
        self.span_start, self.span_end = array("q"), array("q")

    def wrap(self, name, fn):
        """``fn`` inside a span; ``name`` is a string or a function of the call's arguments."""
        calls, self_ns, stack, clock = self.calls, self.self_ns, self._open, time.perf_counter_ns
        name_of = None if isinstance(name, str) else name

        def traced(*args, **kwargs):
            label = name if name_of is None else name_of(args)
            frame = [self._begin(label) if self.recording else -1, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                calls[label] += 1
                self_ns[label] += t1 - t0 - frame[1]
                if frame[0] >= 0:
                    self.span_start[frame[0]] = t0
                    self.span_end[frame[0]] = t1

        return traced

    def _begin(self, label: str) -> int:
        sid = len(self.span_name)
        self.span_name.append(self._names.setdefault(label, len(self._names)))
        self.span_parent.append(self._open[-1][0] if self._open else -1)
        self.span_start.append(0)
        self.span_end.append(0)
        return sid

    def count_states(self, qfi_numeric):
        """``qfi_numeric`` with every call of its state family counted."""
        calls = self.calls

        def qfi_numeric_counted(family, *args, **kwargs):
            def counted(xi):
                calls["metrology.state_build"] += 1
                return family(xi)

            return qfi_numeric(counted, *args, **kwargs)

        return qfi_numeric_counted

    def write(self, path, header: dict) -> None:
        """Write the recorded spans (times in ns from the first start) as gzipped JSON."""
        t0 = min(self.span_start, default=0)
        doc = {
            **header,
            "names": sorted(self._names, key=self._names.get),
            "spans": {
                "name": self.span_name.tolist(),
                "parent": self.span_parent.tolist(),
                "start_ns": [t - t0 for t in self.span_start],
                "end_ns": [t - t0 for t in self.span_end],
            },
        }
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            json.dump(doc, fh)


def install(tracer: Tracer):
    """Wrap every public ``icoswitch`` function where its callers look it up; returns the undo."""
    import icoswitch.cli  # noqa: F401  (loads every module of the package)

    modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "icoswitch"]
    wrappers = {}
    for module in modules:
        short = module.__name__.rpartition(".")[2]
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and attr[0] != "_":
                if attr == "herm_eig":
                    wrappers[obj] = tracer.wrap(lambda args: f"qmat.herm_eig.d{len(args[0])}", obj)
                elif attr == "qfi_numeric":
                    wrappers[obj] = tracer.wrap(f"{short}.{attr}", tracer.count_states(obj))
                else:
                    wrappers[obj] = tracer.wrap(f"{short}.{attr}", obj)
    undo = []
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                undo.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])
    kraus = sys.modules["icoswitch.channels"].KrausChannel
    undo.append((kraus, "__post_init__", kraus.__post_init__))
    kraus.__post_init__ = tracer.wrap("channels.kraus_check", kraus.__post_init__)
    selfcheck = sys.modules["icoswitch.selfcheck"]
    undo.append((selfcheck, "ALL_CHECKS", selfcheck.ALL_CHECKS))
    selfcheck.ALL_CHECKS = tuple(wrappers.get(check, check) for check in selfcheck.ALL_CHECKS)

    def restore() -> None:
        for owner, attr, obj in reversed(undo):
            setattr(owner, attr, obj)

    return restore


def layer_metrics(passes: list[tuple[dict, dict]]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the (calls, self ns) of each traced pass.

    Counts come from the first pass (they repeat exactly); self times are
    the median over the passes, in ms per pass.
    """
    calls = passes[0][0]

    def self_ms(spans) -> float:
        return statistics.median(sum(ns.get(s, 0) for s in spans) for _, ns in passes) / 1e6

    out = {}
    for layer, spans in COUNTED.items():
        out[f"{layer}.calls"] = (sum(calls.get(s, 0) for s in spans), "count")
        out[f"{layer}.self_ms"] = (self_ms(spans), "ms")
    qfi = calls.get("metrology.qfi_numeric", 0)
    out["metrology.state_builds_per_qfi"] = (calls.get("metrology.state_build", 0) / qfi if qfi else 0.0, "ratio")
    for span in TIMED:
        out[f"{span}.self_ms"] = (self_ms((span,)), "ms")
    return out
