"""Run one ``edbench`` command with timing spans around its layers.

Usage: ``python3 bench/tracer.py SPANS_JSON <edbench arguments...>``

The child wraps every edbench function that ``edbench.cli`` imports, plus
the comorbidity calls ``edbench.cohort`` makes inside ``build_master``, in
a span recorder, then calls ``edbench.cli.main``. Spans stay in memory as
``[name, start, end, parent]`` (parent is an index into the list, -1 for
the root) and are written to SPANS_JSON on exit together with counters
taken at the same boundaries. Nothing under ``src/`` is modified: the
wrappers replace module attributes in this process only.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import os
import sys
import time
from collections import Counter


class Tracer:
    """Span stack plus counters for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = [-1]
        self.counts: Counter = Counter()

    def wrap(self, name, fn, after=None):
        """Return ``fn`` recording a span; ``name`` may be a function of
        the call's arguments, and ``after(args, result)`` adds counts once
        the span has closed so that counting is not timed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name(args, kwargs) if callable(name) else name,
                    0.0, 0.0, self.stack[-1]]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def dump(self, path: str, exit_code: int) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"exit_code": exit_code, "spans": self.spans,
                       "counts": dict(self.counts)}, fh)


def _layer_name(fn) -> str:
    # edbench.models.base.train_model -> models.train_model
    return f"{fn.__module__.split('.')[1]}.{fn.__name__}"


def install(tracer: Tracer) -> None:
    """Replace edbench functions seen by the CLI with traced versions."""
    from edbench import cli, cohort, evaluate

    def count_rows(args, tables):
        tracer.counts["ingest.rows"] += sum(
            len(getattr(tables, f.name)) for f in dataclasses.fields(tables))

    def train_name(args, kwargs):
        kind = args[1] if len(args) > 1 else kwargs["kind"]
        return f"models.train_model.{kind}"

    def count_nodes(args, model):
        if model.kind in ("random_forest", "boosting"):
            tracer.counts[f"models.{model.kind}.nodes"] += sum(
                len(tree["feature"]) for tree in model.params.get("trees", ()))

    def count_model_bytes(args, result):
        tracer.counts["models.model_bytes"] += os.path.getsize(args[1])

    special = {
        "read_raw_tables": (None, count_rows),
        "train_model": (train_name, count_nodes),
        "save_model": (None, count_model_bytes),
    }
    for attr, obj in list(vars(cli).items()):
        if (inspect.isfunction(obj) and obj.__module__.startswith("edbench.")
                and obj.__module__ != cli.__name__):
            name, after = special.get(attr, (None, None))
            setattr(cli, attr, tracer.wrap(name or _layer_name(obj), obj, after))

    for attr in ("collect_codes_in_lookback", "map_to_cci", "map_to_eci"):
        fn = getattr(cohort, attr)
        setattr(cohort, attr, tracer.wrap(_layer_name(fn), fn))

    # each call of the metric inside bootstrap_ci is one resample drawn
    bootstrap_ci = evaluate.bootstrap_ci

    @functools.wraps(bootstrap_ci)
    def counted_bootstrap_ci(metric, *args, **kwargs):
        def counted_metric(*margs):
            tracer.counts["evaluate.bootstrap_resamples"] += 1
            return metric(*margs)
        return bootstrap_ci(counted_metric, *args, **kwargs)

    evaluate.bootstrap_ci = counted_bootstrap_ci


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from edbench import cli

    root = tracer.wrap("cli.main", cli.main)
    code = 1
    try:
        code = root(cli_args)
    finally:
        tracer.dump(spans_path, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
