"""The benchmark's self-test, run as part of the suite.

`perfbench/` patches functions and classes of the program by name to trace
them. A rename there fails these tests rather than the next benchmark run:
the fast one patches and restores every traced name in this process, the
slow one runs the whole self-test.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rbshare import agent

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_patches_and_restores_program(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracer import Tracer
    from workload import install_tracer

    forward = agent.MLP.forward
    tracer = Tracer()
    try:
        install_tracer(tracer, np)
        assert agent.MLP.forward is not forward
    finally:
        tracer.restore()
    assert agent.MLP.forward is forward


@pytest.mark.slow
def test_benchmark_selftest():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
