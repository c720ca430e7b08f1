"""``python -m majo``: the ``majo`` command line."""

import sys

from .cli import main

sys.exit(main())
