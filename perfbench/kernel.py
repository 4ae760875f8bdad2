"""Build the checkout's C kernel into the benchmark's own directory and load it.

The benchmark must measure the kernel of the commit under test: a stale
``repro/_native*.so`` left in ``src/repro`` by an earlier build must never be
imported. So :func:`build` compiles ``src/repro/_native.c`` with fixed flags
into ``.bench_build/perfbench/kernel-<source hash>/``, and :func:`preload`
installs that module as ``repro._native`` in ``sys.modules`` *before*
``repro`` is imported, so the package's own import finds it there and never
searches ``src/repro``. Processes forked later (cube workers, portfolio
lanes, daemon workers) inherit the loaded module.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import platform
import subprocess
import sys
import sysconfig
from typing import Dict, List

from common import BUILD_DIR, NATIVE_SOURCE, SRC, BenchError

CC = "gcc"
CFLAGS = ["-O3", "-DNDEBUG", "-fwrapv", "-fPIC", "-shared", "-pipe"]


def source_sha256() -> str:
    with open(NATIVE_SOURCE, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def compile_command(out_path: str) -> List[str]:
    include = sysconfig.get_paths()["include"]
    return [CC] + CFLAGS + ["-I" + include, NATIVE_SOURCE, "-o", out_path]


def kernel_path() -> str:
    """Where the kernel of this checkout's ``_native.c`` is (or will be)."""
    if not os.path.isfile(NATIVE_SOURCE):
        raise BenchError("no kernel source at %s" % NATIVE_SOURCE)
    digest = hashlib.sha256(
        (source_sha256() + " ".join(CFLAGS) + sys.version).encode()
    ).hexdigest()[:16]
    return os.path.join(BUILD_DIR, "kernel-" + digest, "_native" + sysconfig.get_config_var("EXT_SUFFIX"))


def build() -> str:
    """Compile the kernel unless this exact source and flag set is built."""
    path = kernel_path()
    if os.path.isfile(path):
        return path
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = "%s.tmp%d" % (path, os.getpid())
    proc = subprocess.run(compile_command(tmp), capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise BenchError("kernel build failed:\n%s" % proc.stderr[-4000:])
    os.replace(tmp, path)
    return path


def preload(path: str) -> None:
    """Make ``repro._native`` resolve to the module built at ``path``."""
    if "repro" in sys.modules:
        raise BenchError("preload must run before repro is imported")
    spec = importlib.util.spec_from_file_location("repro._native", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules["repro._native"] = module
    from repro.core.engine import native

    loaded = getattr(native._native, "__file__", None)
    if loaded != path:
        raise BenchError("kernel loaded from %r, expected %r" % (loaded, path))


def env_block(path: str) -> Dict[str, object]:
    """Machine, interpreter, commit and kernel build the numbers belong to."""
    from repro.core.engine.native import kernel_version

    return {
        "commit": _commit(),
        "src_sha256": _tree_sha256(SRC),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "os_kernel": platform.release(),
        "compiler": CC,
        "compile_flags": " ".join(CFLAGS),
        "native_c_sha256": source_sha256(),
        "native_kernel_path": os.path.relpath(path, os.path.dirname(SRC)),
        "native_kernel_version": kernel_version(),
    }


def _commit() -> str:
    """The checkout's commit; "unknown" outside a git work tree of its own."""
    root = os.path.dirname(SRC)
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _tree_sha256(root: str) -> str:
    """Hash of the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__" and not d.endswith(".egg-info"))
        for name in sorted(filenames):
            if name.endswith((".py", ".c")):
                full = os.path.join(dirpath, name)
                digest.update(os.path.relpath(full, root).encode())
                with open(full, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()
