"""Test-session setup: the `python -m deltanabla` processes some tests
start import the package from src/, as the tests themselves do through
pytest's pythonpath setting, so no install is needed."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH")))
)
