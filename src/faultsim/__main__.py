"""``python -m faultsim``: the ``faultsim`` command line."""

import sys

from .cli import main

sys.exit(main())
