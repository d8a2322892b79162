import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from carlitz import field_make


@pytest.fixture
def f2():
    return field_make(2)


@pytest.fixture
def f3():
    return field_make(3)


@pytest.fixture
def f9():
    return field_make(3, 2)


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def fresh_python():
    """Runs code in a fresh interpreter that imports carlitz from this
    checkout's src; returns its stripped stdout."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    def run(code):
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    return run
