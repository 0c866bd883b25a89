"""Make ``repro`` and the benchmark's modules importable, as run.py does."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
E2E = os.path.dirname(HERE)
ROOT = os.path.dirname(os.path.dirname(E2E))
for path in (os.path.join(ROOT, "src"), E2E):
    if path not in sys.path:
        sys.path.insert(0, path)
