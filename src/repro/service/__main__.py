"""Entry point: ``python -m repro.service``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
