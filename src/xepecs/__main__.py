"""The command line's process entry, for ``python -m xepecs`` and the ``xepecs`` script."""

import gc
import sys

from .cli import main


def run() -> int:
    # the import heap lives until exit; frozen, no collection walks it, not even shutdown's
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
