"""``python -m seqkey``: the ``seqkey`` command, exiting with its code."""

import sys

from seqkey.cli import main

if __name__ == "__main__":
    sys.exit(main())
