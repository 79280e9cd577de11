"""Puts this checkout's ``src`` on the import path, unless PYTHONPATH
already provides ``harmonichh``: then that package is the one tested, so
``PYTHONPATH=<other tree>/src python -m pytest`` tests the other tree."""

import os
import sys
from importlib.machinery import PathFinder
from pathlib import Path

if PathFinder.find_spec("harmonichh", os.environ.get("PYTHONPATH", "").split(os.pathsep)) is None:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
