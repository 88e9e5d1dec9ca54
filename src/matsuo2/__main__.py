"""`python -m matsuo2 ...`: the same entry point as the matsuo2 script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
