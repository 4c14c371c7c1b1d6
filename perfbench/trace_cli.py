"""Run the calibwalk CLI in this process with a span around each layer call.

Usage: python3 trace_cli.py SPANS_JSON CLI_ARG...

Every function in ``LAYERS`` is replaced by a timing wrapper in *every*
calibwalk module that holds it by name, so calls made from inside another
layer (``monte_carlo_test`` -> ``cumulative_process``, ``read_dataset_csv``
-> ``build_dataset``) are recorded as child spans.  Spans stay in memory
and are written to SPANS_JSON, with a few counters, when the CLI returns.
The package itself is not modified.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = (
    "dataio.read_dataset_csv",
    "data.build_dataset",
    "data.cumulative_process",
    "data.walk_statistics",
    "stattests.bm_test_from_process",
    "stattests.bb_test_from_process",
    "stattests.hosmer_lemeshow_test",
    "stattests.weak_calibration_lr_test",
    "stattests.monte_carlo_test",
    "simulation.generate_dataset",
    "svgplot.render_cumulative_plot",
    "svgplot.render_study_figures",
    "dataio.write_report_json",
    "dataio.write_study_json",
)


def _mc_draws(bound, result):
    return bound.arguments["replications"] * bound.arguments["data"].n


# layer -> (counter name, amount(bound arguments, result)) added per call
COUNTERS = {
    "dataio.read_dataset_csv": ("rows", lambda bound, result: result.n),
    "svgplot.render_cumulative_plot":
        ("bytes", lambda bound, result: len(result.encode("utf-8"))),
    "stattests.weak_calibration_lr_test":
        ("iterations", lambda bound, result: result.iterations),
    "stattests.monte_carlo_test": ("draws", _mc_draws),
}


class Tracer:
    """Spans as [layer, start, end, parent index] plus per-layer counters."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._open = [-1]

    def wrap(self, layer, function):
        counter = COUNTERS.get(layer)
        signature = inspect.signature(function)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = [layer, time.perf_counter(), None, self._open[-1]]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if counter is not None:
                name, amount = counter
                key = f"{layer}.{name}"
                bound = signature.bind(*args, **kwargs)
                self.counters[key] = (self.counters.get(key, 0)
                                      + amount(bound, result))
            return result

        return traced

    def install(self):
        """Patch each layer wherever a calibwalk module binds it by name."""
        modules = [module for name, module in list(sys.modules.items())
                   if name == "calibwalk" or name.startswith("calibwalk.")]
        for layer in LAYERS:
            module_name, function_name = layer.split(".")
            original = getattr(sys.modules[f"calibwalk.{module_name}"],
                               function_name)
            wrapper = self.wrap(layer, original)
            for module in modules:
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attribute, wrapper)


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    import calibwalk.cli as cli  # imports every calibwalk module

    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    code = cli.main(cli_args)
    end = time.perf_counter()
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"start": start, "end": end, "exit_code": code,
                   "spans": tracer.spans, "counters": tracer.counters},
                  handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
