"""Make the harness modules and the program importable from the tests."""

import sys
from pathlib import Path

HARNESS = Path(__file__).resolve().parent.parent
for path in (HARNESS, HARNESS.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
