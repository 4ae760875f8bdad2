"""Load the benchmark's modules and the checkout's kernel, as run.py does."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from common import use_source_tree  # noqa: E402
import kernel  # noqa: E402

use_source_tree()
if "repro" not in sys.modules:
    kernel.preload(kernel.build())
