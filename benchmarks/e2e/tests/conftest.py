"""Self-tests of the benchmark: ``python -m pytest benchmarks/e2e -q``.

Not part of tier-1 (pyproject's ``testpaths`` is ``tests``).  The
benchmark's modules import each other by bare name, as they do when
``run.py`` runs as a script, so its directory goes on ``sys.path`` here.
"""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parent.parent
REPO = E2E.parent.parent
for entry in (str(REPO / "src"), str(E2E)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
