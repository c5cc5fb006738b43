"""One ``qma`` invocation as the benchmark launches it.

    python3 child.py <marks.json> <mode> <qma args...>

The process enters through ``qma.cli.main`` exactly like the ``qma``
script.  It stamps ``time.monotonic()`` when ``run_command`` starts and
ends and writes the stamps to ``marks.json``; the parent, which stamped
the launch, turns them into set-up and run time.  Modes:

- ``timed``: a plain run;
- ``setup``: stop as soon as ``run_command`` is entered (set-up probe);
- ``trace:<spans.json>``: wrap the public layer functions first and write
  the aggregated spans at exit.
"""

import json
import sys
import time


class _SetupDone(BaseException):
    """Leaves ``qma.cli.main`` at the start of ``run_command``."""


def main(argv):
    marks_path, mode, qma_args = argv[0], argv[1], argv[2:]
    import qma.cli as cli

    tracer = None
    if mode.startswith("trace:"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    marks = {"qma_file": cli.__file__}
    inner = cli.run_command

    def run_command(cfg):
        marks["run_start"] = time.monotonic()
        if mode == "setup":
            raise _SetupDone
        try:
            return inner(cfg)
        finally:
            marks["run_end"] = time.monotonic()

    cli.run_command = run_command
    try:
        status = cli.main(qma_args)
    except _SetupDone:
        status = 0
    with open(marks_path, "w") as fh:
        json.dump(marks, fh)
    if tracer is not None:
        with open(mode[len("trace:"):], "w") as fh:
            json.dump(tracer.export(), fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
