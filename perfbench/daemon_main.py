"""Start ``repro serve run`` on the checkout's freshly built kernel.

Usage: ``python3 perfbench/daemon_main.py KERNEL_PATH serve run --socket S ...``.
The kernel is preloaded exactly as in the benchmark process, so the daemon
and the workers it forks never import a stale extension from ``src/repro``.
"""

import sys

from common import use_source_tree
from kernel import preload

if __name__ == "__main__":
    use_source_tree()
    preload(sys.argv[1])
    from repro.cli import main

    sys.exit(main(sys.argv[2:]))
