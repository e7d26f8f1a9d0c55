"""Importing the engines, the command line or the oracle loads no
standard-library module that the numerics never use, nor mpmath
(tests/import_footprint.py)."""

import os
import subprocess
import sys

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")


@pytest.mark.parametrize("module", ["lerchphi.engines", "lerchphi.cli",
                                    "lerchphi.oracle"])
def test_import_footprint(module):
    # a fresh interpreter: this one has loaded inspect for pytest
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    out = subprocess.run(
        [sys.executable, os.path.join(TESTS, "import_footprint.py"), module],
        env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stdout + out.stderr
    assert os.path.join(SRC, "lerchphi") in out.stdout
