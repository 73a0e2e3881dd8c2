"""Provenance shim for the frozen end-to-end benchmark (``benchmarks/e2e``).

The numpy event arena and the ``fastpath`` axis are gone: the pending heap
of :mod:`repro.kernel.queues` is the only event store.  The benchmark
still imports this name to print what the default resolved to; the module
goes with the next ``benchmark`` PR.  Nothing under ``src/`` imports it.
"""


def resolve_fastpath(spec=None) -> str:
    return "python"
