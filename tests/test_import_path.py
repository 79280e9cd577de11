"""A test run imports the ``harmonichh`` that PYTHONPATH provides, and this
checkout's ``src`` only when PYTHONPATH provides none (``conftest.py``)."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def collect(pythonpath):
    """Collect one test module in a fresh pytest process; returns the
    finished process."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    if pythonpath:
        env["PYTHONPATH"] = pythonpath
    return subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                           "-p", "no:cacheprovider", "tests/test_svf.py"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


def test_pythonpath_package_is_the_one_tested(tmp_path):
    # a stub package that marks its own import; collection then fails on
    # the modules the stub lacks, which does not matter here
    stub = tmp_path / "harmonichh"
    stub.mkdir()
    (stub / "__init__.py").write_text(
        "from pathlib import Path\nPath(__file__).with_name('imported').touch()\n")
    collect(str(tmp_path))
    assert (stub / "imported").exists()


def test_bare_run_finds_src():
    proc = collect(None)
    assert proc.returncode == 0, proc.stdout + proc.stderr
