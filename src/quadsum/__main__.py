"""``python -m quadsum``: the command-line interface of ``quadsum.cli``."""

import sys

from .cli import main

sys.exit(main())
