"""Process entry point of ``python -m curvemotive`` and the ``curvemotive`` script."""

import gc
import os
import sys

from .cli import EXIT_BROKEN_PIPE, main


def run():
    """Run the command line as a whole process, then end the process.

    Everything alive when a run starts stays alive until the process exits,
    and a run leaves no cyclic garbage that grows with its input, so the
    cyclic garbage collector has nothing to gain: ``gc.disable()`` turns it
    off for the run.  After flushing the standard streams the process ends with
    ``os._exit``: the interpreter's teardown would only free, one by one,
    objects (a ``series.Run``'s scans and per-key sums above all) whose
    memory the operating system takes back anyway.  This is the one place
    that flushes standard output and maps a closed one to
    ``EXIT_BROKEN_PIPE``: with no teardown, no later flush is left to fail.
    ``cli.main`` neither flushes nor touches the collector, so calling it in
    process changes nothing there.
    """
    gc.disable()
    code = main()
    try:
        sys.stdout.flush()  # every command's output and --help's: main flushes none
    except BrokenPipeError:
        code = EXIT_BROKEN_PIPE
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
