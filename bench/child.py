"""One benchmark sample in a fresh process, run the way ``lab run`` runs a config.

    python child.py CONFIG_JSON RESULT_JSON [--setup-only] [--trace RUN_ID]

Writes RESULT_JSON with:

* ``setup_end``: the CLOCK_MONOTONIC reading once ``reclab.cli`` and
  ``reclab.experiments`` are imported and the config is parsed; the
  parent subtracts its own reading taken just before it started this
  process, which gives the set-up time across the process boundary;
* ``run_s``: wall seconds of one ``run_experiment`` call, from the call
  to the persisted report;
* ``peak_rss_mb``: this process's peak resident memory after the run;
* ``status`` and ``reclab_file``, and with ``--trace`` the spans and
  counters recorded around each layer.

Nothing else is imported before set-up ends, so set-up covers the same
imports as ``lab run``.  Any exception ends the process with a nonzero
exit code, which the parent counts as a failed operation.
"""

import sys
import time


def main(argv: list[str]) -> int:
    import json

    import reclab.cli  # noqa: F401  (the imports every `lab run` pays for)
    from reclab import experiments

    config_path, result_path = argv[1], argv[2]
    with open(config_path, "r", encoding="utf-8") as fh:
        config = experiments.ExperimentConfig.from_json(json.load(fh))
    setup_end = time.monotonic()

    result: dict = {"setup_end": setup_end, "reclab_file": reclab.cli.__file__}
    if "--setup-only" not in argv:
        import resource

        tracer = None
        if "--trace" in argv:
            from spans import Tracer

            tracer = Tracer(argv[argv.index("--trace") + 1]).install()
        try:
            start = time.perf_counter()
            report = experiments.run_experiment(config)
            run_s = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        result.update(
            run_s=run_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            status=report.status,
        )
        if tracer is not None:
            result.update(spans=tracer.spans, counts=dict(tracer.counts))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
