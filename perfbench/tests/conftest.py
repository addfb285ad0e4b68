"""Put the benchmark's modules and the package source on the path.

The benchmark's modules are plain scripts next to ``run.py``, not a
package, so the tests import them the way ``run.py`` does.
"""
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for p in (HERE.parent, HERE.parents[1] / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))
