"""serve-mix: a closed loop of two client connections against ``repro serve run``.

Set-up starts the daemon (on the checkout's kernel) and waits until it
answers. The measured loop then replays cycles of a fixed request mix over
two persistent unix-socket connections; each client sends its next request
only after the previous reply, and a cycle ends when all its replies are in.
A cycle holds:

* ``solve-miss``: solves of small NCF games whose budget changes every
  cycle, so each is a cache miss that a forked ``evalx.parallel`` worker
  runs, with the same work every cycle;
* ``solve-hit``: solves answered from the daemon's verdict cache (the pool
  is solved once during set-up);
* ``smv``: one ``smv-diameter`` bound sweep of a model family, answered by
  the family's persistent incremental solver; its budget also changes every
  cycle, so the verdict cache never answers it.

The workload seed fixes the request order within each cycle and the NCF
instances. Oracles: ``core.expansion.evaluate`` for the NCF games and the
explicit-state BFS for the diameter bounds.
"""

from __future__ import annotations

import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List

from common import BENCH_DIR, ROOT, Item, median, no_tick

ENGINE = "counters"
DETERMINISTIC = False
#: two clients share a cycle: its wall is the cycle's, not a sum of items.
CONCURRENT = True
POOL = 8
FAMILIES = (("counter", 2), ("ring", 2), ("dme", 3))
HIT_BUDGET = 5000
#: miss and smv budgets are MISS_BUDGET_BASE + cycle: never binding, but a
#: new cache key every cycle.
MISS_BUDGET_BASE = 100000
CLIENTS = 2
TIMEOUT = 60.0


class Connection:
    """One persistent newline-delimited JSON connection to the daemon."""

    def __init__(self, path: str):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(TIMEOUT)
        self.sock.connect(path)
        self.file = self.sock.makefile("rwb")

    def request(self, payload: Dict[str, object]) -> Dict[str, object]:
        self.file.write((json.dumps(payload) + "\n").encode())
        self.file.flush()
        line = self.file.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return json.loads(line)

    def close(self) -> None:
        self.file.close()
        self.sock.close()


def formulas(seed: int):
    """``(label, phi)`` for the hit pool and the miss pool."""
    from repro.generators.ncf import NcfParams, generate_ncf

    rng = random.Random(seed)
    out = []
    for _ in range(2 * POOL):
        var = rng.randint(3, 4)
        params = NcfParams(dep=3, var=var, cls=3 * var, lpc=rng.randint(3, 4), seed=rng.randrange(1 << 30))
        out.append((params.label, generate_ncf(params)))
    return out[:POOL], out[POOL:]


def start_daemon(socket_path: str, kernel_path: str):
    env = dict(os.environ)
    # smv-diameter requests carry no engine field: pin the daemon default.
    env.update(REPRO_ENGINE=ENGINE, REPRO_PARADIGM="search")
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "daemon_main.py"), kernel_path,
         "serve", "run", "--socket", socket_path, "--jobs", "2"],
        cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + TIMEOUT
    while True:
        if proc.poll() is not None:
            raise RuntimeError("serve daemon exited with %s during start-up" % proc.returncode)
        if os.path.exists(socket_path):
            try:
                conn = Connection(socket_path)
                if conn.request({"kind": "ping"}).get("pong"):
                    return proc, conn
                conn.close()
            except OSError:
                pass
        if time.monotonic() > deadline:
            stop_daemon(proc)
            raise RuntimeError("serve daemon did not answer within %.0fs" % TIMEOUT)
        time.sleep(0.01)


def stop_daemon(proc) -> int:
    """SIGTERM the daemon, wait for it, and return its peak RSS in KiB."""
    if proc.returncode is not None:
        return 0
    # os.kill and os.wait4 rather than Popen's methods: Popen would reap the
    # daemon itself and its resource usage would be lost.
    os.kill(proc.pid, signal.SIGTERM)
    deadline = time.monotonic() + TIMEOUT
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage.ru_maxrss
        if time.monotonic() > deadline:
            os.kill(proc.pid, signal.SIGKILL)
        time.sleep(0.01)


def prepare(seed: int, workdir: str, kernel_path: str) -> Dict[str, object]:
    from repro.io import qtree
    from repro.smv.models import model_by_name
    from repro.smv.reachability import eccentricity

    hit_pool, miss_pool = formulas(seed)
    socket_path = os.path.relpath(os.path.join(workdir, "serve.sock"), ROOT)
    proc, first = start_daemon(socket_path, kernel_path)
    conns = [first] + [Connection(socket_path) for _ in range(CLIENTS - 1)]
    state = {
        "seed": seed,
        "proc": proc,
        "conns": conns,
        "hit": [(label, qtree.dumps(phi), phi) for label, phi in hit_pool],
        "miss": [(label, qtree.dumps(phi), phi) for label, phi in miss_pool],
        # the sweep length only; the oracle recomputes the diameters.
        "sweeps": [(f, s, eccentricity(model_by_name(f, s))) for f, s in FAMILIES],
    }
    for label, text, _ in state["hit"]:
        first.request(_solve(label, text, HIT_BUDGET))
    return state


def _solve(label: str, text: str, decisions: int) -> Dict[str, object]:
    return {
        "kind": "solve", "instance": label, "formula": text, "format": "qtree",
        "mode": "po", "engine": ENGINE, "paradigm": "search",
        "budget": {"decisions": decisions},
    }


def cycle_requests(state, index: int):
    budget = MISS_BUDGET_BASE + index
    reqs = []
    for label, text, _ in state["miss"]:
        reqs.append(("solve-miss", label, _solve(label, text, budget)))
    for label, text, _ in state["hit"]:
        reqs.append(("solve-hit", label, _solve(label, text, HIT_BUDGET)))
    family, size, d = state["sweeps"][index % len(state["sweeps"])]
    for n in range(d + 1):
        reqs.append(("smv", "%s%d/n=%d" % (family, size, n), {
            "kind": "smv-diameter", "family": family, "size": size, "n": n,
            "budget": {"decisions": budget},
        }))
    random.Random("%d/%d" % (state["seed"], index)).shuffle(reqs)
    # sweep bounds go in increasing n, as a diameter loop sends them
    smv_slots = [i for i, r in enumerate(reqs) if r[0] == "smv"]
    smv_reqs = sorted((reqs[i] for i in smv_slots), key=lambda r: r[2]["n"])
    for slot, req in zip(smv_slots, smv_reqs):
        reqs[slot] = req
    return reqs


def run_pass(state, index: int, tick=no_tick) -> List[Item]:
    """One cycle; its requests overlap, so the pace is probed between
    cycles only."""
    reqs = cycle_requests(state, index)
    items: List[Item] = [None] * len(reqs)
    lock = threading.Lock()
    cursor = [0]

    def client(conn):
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(reqs):
                return
            kind, label, payload = reqs[i]
            t0 = time.perf_counter()
            try:
                resp = conn.request(payload)
            except (OSError, ValueError) as exc:
                items[i] = Item("%s:%s" % (kind, label), time.perf_counter() - t0,
                                error="%s: %s" % (type(exc).__name__, exc), started=t0)
                continue
            items[i] = _item(kind, label, time.perf_counter() - t0, resp)
            items[i].started = t0

    threads = [threading.Thread(target=client, args=(c,)) for c in state["conns"]]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return items


def _item(kind: str, label: str, seconds: float, resp: Dict[str, object]) -> Item:
    key = "%s:%s" % (kind, label)
    extra = {"kind": kind, "server_s": resp.get("seconds"), "status": resp.get("status"),
             "retained": resp.get("retained", 0)}
    if not resp.get("ok"):
        return Item(key, seconds, error="%s: %s" % (resp.get("status", "error"), resp.get("error")), extra=extra)
    error = None
    cached = bool(resp.get("cached"))
    if cached != (kind == "solve-hit"):
        error = "expected a cache %s" % ("hit" if kind == "solve-hit" else "miss")
    outcome = str(resp.get("outcome", "unknown")).lower()
    truth = label if kind != "smv" else "smv:" + label
    return Item(key, seconds, outcome, int(resp.get("decisions", 0)), error, truth_key=truth, extra=extra)


def truths(state) -> Dict[str, bool]:
    from repro.core.expansion import evaluate
    from repro.smv.models import model_by_name
    from repro.smv.reachability import eccentricity

    out = {label: evaluate(phi) for label, _, phi in state["hit"] + state["miss"]}
    for family, size in FAMILIES:
        d = eccentricity(model_by_name(family, size))
        for n in range(d + 2):
            out["smv:%s%d/n=%d" % (family, size, n)] = n < d
    return out


def engines_used(state) -> List[str]:
    return [ENGINE]


def layer_counts(state, items: List[Item], passes: int) -> Dict[str, float]:
    """Per-layer numbers read off the daemon's responses, per cycle."""
    by_kind: Dict[str, List[Item]] = {}
    for it in items:
        by_kind.setdefault(it.extra.get("kind", "?"), []).append(it)
    out = {}
    for kind, name in (("solve-miss", "solve_miss"), ("solve-hit", "solve_hit"), ("smv", "smv")):
        lat = [it.seconds * 1000 for it in by_kind.get(kind, [])]
        out["serve.%s.latency_p50_ms" % name] = median(lat) if lat else 0.0
    overhead = [
        (it.seconds - it.extra["server_s"]) * 1000 for it in items
        if it.error is None and isinstance(it.extra.get("server_s"), (int, float))
        and it.extra.get("kind") != "solve-hit"
    ]
    out["serve.overhead_ms"] = median(overhead) if overhead else 0.0
    solves = by_kind.get("solve-miss", []) + by_kind.get("solve-hit", [])
    hits = sum(1 for it in solves if it.extra.get("kind") == "solve-hit" and it.error is None)
    out["serve.cache_hit_share"] = hits / len(solves) if solves else 0.0
    out["serve.shed"] = sum(1 for it in items if it.extra.get("status") == "overloaded") / passes
    smv = by_kind.get("smv", [])
    out["incremental.retained"] = sum(int(it.extra.get("retained") or 0) for it in smv) / passes
    out["incremental.decisions"] = sum(it.decisions for it in smv) / passes
    return out


def close(state) -> None:
    for conn in state["conns"]:
        conn.close()
    state["child_maxrss_kb"] = stop_daemon(state["proc"])
