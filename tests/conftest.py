import json
import os
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from relshape import connsets  # noqa: E402
from relshape.graphs import Graph  # noqa: E402
from relshape.census import CensusCache, generate_connected  # noqa: E402

FIXTURES = Path(__file__).parent / "fixtures"
BENCHMARK_EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"


def checkout_env():
    """Environment for a child interpreter: this checkout's ``src`` first on
    PYTHONPATH, so the child imports the package under test whether or not
    the caller set PYTHONPATH or installed relshape."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def families_large_digests() -> dict[str, str]:
    """{selector: sha256 of the stdout of ``analyze --family selector
    --json``} for the 104 families of the benchmark's families-large
    workload, as the benchmark's expected outputs record them."""
    return json.loads(BENCHMARK_EXPECTED.read_text())["families"]


def sparse_pool_digests() -> dict[str, str]:
    """{graph6: sha256 of the stdout of ``analyze --graph6 G --json``} for
    the 200 graphs of order 22..25 that the benchmark's sparse-count
    workload draws from, as its expected outputs record them."""
    pool = json.loads(BENCHMARK_EXPECTED.read_text())["sparse_pool"]
    return {g6: entry["sha256"] for g6, entry in pool.items()}


def count_calls(monkeypatch, modules, name):
    """Route every module's binding of function ``name`` through one shared
    counter; returns the list of first arguments, one entry per call."""
    original = getattr(modules[0], name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for module in modules:
        assert getattr(module, name) is original
        monkeypatch.setattr(module, name, counted)
    return calls


def count_connected_sets_frontier(g):
    """Count connected sets by the frontier program over its greedy vertex
    order, whatever ``count_connected_sets`` would pick."""
    return connsets._frontier_profile(g, connsets.frontier_order(g)[0])


def relabel(g, perm):
    """g with its vertices relabelled; ``perm[v]`` is the new label of v."""
    adj = [0] * g.n
    for v in range(g.n):
        adj[perm[v]] = sum(1 << perm[u] for u in range(g.n) if g.adj[v] >> u & 1)
    return Graph(g.n, tuple(adj))


def isomorphisms(g, h):
    """Yield every isomorphism from g onto h as a tuple p, ``p[v]`` the image
    of v: the n! permutations, extended one vertex at a time and cut as soon
    as the prefix breaks an adjacency."""

    def extend(p, used):
        v = len(p)
        if v == g.n:
            yield tuple(p)
            return
        for u in range(h.n):
            if not used >> u & 1 and all(
                    (g.adj[v] >> w & 1) == (h.adj[u] >> p[w] & 1) for w in range(v)):
                yield from extend(p + [u], used | 1 << u)

    if g.n == h.n:
        yield from extend([], 0)


def automorphisms(g):
    """Every automorphism of g (``isomorphisms`` from g onto itself)."""
    return list(isomorphisms(g, g))


@pytest.fixture(scope="session")
def vcache():
    """One census cache for the whole session: each graph is counted and
    each distinct profile analyzed at most once."""
    return CensusCache()


@pytest.fixture(scope="session")
def graphs6():
    return list(generate_connected(6))


@pytest.fixture(scope="session")
def graphs7():
    return list(generate_connected(7))


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES
