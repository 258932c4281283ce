"""Spans around calls into nagdyn's public functions, installed from outside.

``Tracer.install`` replaces every function named in the ``__all__`` of each
layer module with a wrapper that records a span (name, start, end, parent).
It replaces the function wherever a nagdyn module holds a reference to it,
so calls between modules and calls inside one module are both traced.
Nothing under ``src/`` changes, and ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

LAYER_MODULES = ("cli", "experiments", "game", "spectral", "dynamics", "analysis", "special")

BESSEL = tuple(f"special.bessel_{k}" for k in ("j0", "j1", "y0", "y1", "i0", "i1", "k0", "k1"))
CERTIFICATES = tuple(
    f"analysis.{k}"
    for k in (
        "lyapunov_series",
        "chetaev_negative",
        "chetaev_complex",
        "energy_identity_residual",
        "distance_to_nullspace",
        "nullspace_limit",
        "modal_project",
    )
)
MODAL_SOLUTION = ("special.make_modal_solution", "special.eval_modal_series", "special.eval_modal")
SIMULATORS = ("dynamics.simulate_nagd", "dynamics.simulate_modal", "dynamics.simulate_first_order")


def _steps(args, kwargs, record) -> dict:
    cfg = record.meta["config"]
    # a saturated run stops early; its last recorded row bounds the steps taken
    steps = (record.n_samples - 1) * cfg.record_stride if record.saturated else cfg.n_steps
    return {"steps": steps}


def _csv_written(args, kwargs, result) -> dict:
    path, header, columns = args[:3]
    return {"rows": int(columns[0].shape[0]), "bytes": os.path.getsize(path)}


COUNTERS = {
    **{name: _steps for name in SIMULATORS},
    "experiments.write_csv": _csv_written,
    "experiments.run_sweep": lambda args, kwargs, rows: {"points": len(rows)},
}


class Tracer:
    """Records one span per traced call; ``tag`` labels the spans (the workload)."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent, name, start_ns, end_ns, tag, counts]
        self.tag = ""
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, 0, 0, self.tag, None]
            spans.append(span)
            stack.append(span[0])
            span[3] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter_ns()
                stack.pop()
            if counter is not None:
                span[6] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        holders = [m for name, m in list(sys.modules.items()) if name == "nagdyn" or name.startswith("nagdyn.")]
        for short in LAYER_MODULES:
            module = sys.modules[f"nagdyn.{short}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._saved.append((holder, key, fn))
                            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._saved):
            setattr(holder, key, fn)
        self._saved.clear()

    def write_jsonl(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, tag, counts in self.spans:
                rec = {"id": sid, "parent": parent, "name": name, "start_ns": start, "end_ns": end, "workload": tag}
                if counts:
                    rec.update(counts)
                fh.write(json.dumps(rec) + "\n")

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}; see README.md for each."""
        dur = [(s[4] - s[3]) / 1e6 for s in self.spans]
        child = [0.0] * len(self.spans)
        for s, d in zip(self.spans, dur):
            if s[1] >= 0:
                child[s[1]] += d

        def outermost(names) -> list[int]:
            # spans in `names` with no ancestor in `names`, so nesting is not counted twice
            names = set(names)
            out = []
            for s in self.spans:
                if s[2] not in names:
                    continue
                p = s[1]
                while p >= 0 and self.spans[p][2] not in names:
                    p = self.spans[p][1]
                if p < 0:
                    out.append(s[0])
            return out

        def ms(*names) -> float:
            return sum(dur[i] for i in outermost(names))

        def calls(*names) -> int:
            return sum(1 for s in self.spans if s[2] in names)

        def self_ms(pred) -> float:
            return sum(dur[i] - child[i] for i, s in enumerate(self.spans) if pred(s[2]))

        def count(name: str, key: str) -> float:
            return sum(s[6][key] for s in self.spans if s[2] == name and s[6])

        m: dict[str, tuple[float, str]] = {}
        # the cmd_* bodies (printing, the inline CSV of cmd_sweep) count as main's
        m["cli.main.self_ms"] = (self_ms(lambda n: n.startswith("cli.")), "ms")
        m["cli.main.calls"] = (calls("cli.main"), "count")
        for name in (
            "experiments.load_config",
            "game.pseudo_gradient",
            "spectral.classify_matrix",
            "spectral.eigendecompose",
            "spectral.classify_eigenvalue",
            "analysis.fit_rate",
            "experiments.write_csv",
            "experiments.write_json",
        ):
            m[f"{name}.ms"] = (ms(name), "ms")
            m[f"{name}.calls"] = (calls(name), "count")
        for name in SIMULATORS:
            m[f"{name}.ms"] = (ms(name), "ms")
            m[f"{name}.calls"] = (calls(name), "count")
            steps = count(name, "steps")
            m[f"{name}.steps"] = (steps, "count")
            m[f"{name}.us_per_step"] = (1e3 * ms(name) / steps if steps else 0.0, "us")
        m["experiments.write_csv.rows"] = (count("experiments.write_csv", "rows"), "count")
        m["experiments.write_csv.mib"] = (count("experiments.write_csv", "bytes") / 2**20, "MiB")
        for name in ("experiments.run_experiment", "experiments.run_sweep", "experiments.run_invariant_checks"):
            m[f"{name}.self_ms"] = (self_ms(lambda n, name=name: n == name), "ms")
            m[f"{name}.calls"] = (calls(name), "count")
        m["experiments.run_sweep.points"] = (count("experiments.run_sweep", "points"), "count")
        for group, names in (
            ("analysis.certificates", CERTIFICATES),
            ("special.bessel", BESSEL),
            ("special.modal_solution", MODAL_SOLUTION),
        ):
            m[f"{group}.ms"] = (ms(*names), "ms")
            m[f"{group}.calls"] = (calls(*names), "count")
        return m
