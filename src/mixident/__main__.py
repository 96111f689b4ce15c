"""``python -m mixident``: the ``mixident`` command line (``mixident.cli``)."""

import sys

from mixident.cli import main

sys.exit(main())
