"""``python -m absfw``: the ``absfw`` command, runnable from a checkout with
``PYTHONPATH=src``."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
