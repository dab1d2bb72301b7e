"""``python -m wreathord``: the command line of :mod:`wreathord.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
