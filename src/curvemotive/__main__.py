"""Process entry point of ``python -m curvemotive`` and the ``curvemotive`` script."""

import gc
import sys

from .cli import main


def run() -> int:
    """Run the command line as a whole process and return its exit code.

    Everything alive when a run starts or ends stays alive until the process
    exits, so the cyclic garbage collector gains nothing by walking it.  The
    first ``gc.freeze()`` moves the imported modules out of the collections
    made during the run; the second moves out what the run leaves behind (the
    ``lru_cache`` memos above all), which CPython's collections at exit would
    otherwise walk again in full.  ``cli.main`` itself leaves the collector
    alone, so calling it in process changes nothing there.
    """
    gc.freeze()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
