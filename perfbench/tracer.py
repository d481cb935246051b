"""Traced run of the ramsey-design CLI.

    python3 perfbench/tracer.py SPANS_JSON CAPTURE_DIR -- <ramsey-design arguments>

Wraps the public functions of the package's layers from outside the
package, runs ``ramseydesign.cli.main`` in this process, and writes the
spans to SPANS_JSON when the command ends. A span is
``[name, start_s, end_s, parent_index, attrs]``; spans stay in memory
until then. A few clouds handed to ``protocols.utility_map`` are saved to
CAPTURE_DIR with the map the program computed from them, for the design
check.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

import numpy as np

LAYERS = ("cli", "config", "runner", "particles", "likelihood", "protocols", "instrument", "output")
# utility_map calls whose cloud is saved for the design check
CAPTURE_CALLS = (2, 20, 60, 95)


class Tracer:
    def __init__(self, capture_dir: Path):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.capture_dir = capture_dir
        self.utility_calls = 0
        self.originals: dict = {}

    def wrap(self, name: str, fn):
        attrs_of = getattr(self, "_attrs_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = args[0].values if name == "particles.resample_if_needed" else None
            index = len(self.spans)
            span = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, None]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if attrs_of is not None:
                span[4] = attrs_of(args, kwargs, result, before)
            return result

        return traced

    def _attrs_particles_resample_if_needed(self, args, kwargs, result, before):
        # resampling replaces the cloud's value array
        return {"resampled": args[0].values is not before}

    def _attrs_protocols_utility_map(self, args, kwargs, result, before):
        bound = _bind(self.originals["protocols.utility_map"], args, kwargs)
        cloud, grid = bound["cloud"], bound["grid"]
        self.utility_calls += 1
        if self.utility_calls in CAPTURE_CALLS:
            np.savez(
                self.capture_dir / f"cloud_{self.utility_calls:03d}.npz",
                values=cloud.values,
                weights=cloud.weights,
                taus=grid.taus,
                lam=bound["lambda_b_estimate"],
                overhead_us=bound["overhead_us"],
                utility=result,
            )
        return {"cells": int(cloud.n_particles * len(grid))}

    def _attrs_output_write_trace(self, args, kwargs, result, before):
        return {"bytes": Path(result).stat().st_size}

    def install(self) -> list[str]:
        """Wrap every public function of the layers wherever it is bound.

        Returns the wrapped names, as ``layer.function``.
        """
        modules = {m: importlib.import_module(f"ramseydesign.{m}") for m in LAYERS}
        package = sys.modules["ramseydesign"]
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    self.originals[f"{layer}.{attr}"] = obj
        wrapped = {id(fn): self.wrap(name, fn) for name, fn in self.originals.items()}
        # modules import each other's functions by name, so rebind every copy
        for mod in (package, *(m for n, m in sys.modules.items() if n.startswith("ramseydesign."))):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
        return sorted(self.originals)


def _bind(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def main(argv: list[str]) -> int:
    spans_path, capture_dir, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON CAPTURE_DIR -- <ramsey-design arguments>")
    tracer = Tracer(Path(capture_dir))
    wrapped = tracer.install()
    cli = sys.modules["ramseydesign.cli"]
    try:
        code = cli.main(cli_args)
    finally:
        Path(spans_path).write_text(json.dumps({"wrapped": wrapped, "spans": tracer.spans}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
