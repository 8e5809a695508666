"""Run the command-line interface as ``python -m stablegap <command> ...``."""

import sys

from .cli import main

sys.exit(main())
