"""The benchmark's own test of its host-speed scaling (bench/speed.py).

    python3 -m pytest bench/test_speed.py -q
"""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402


def test_scale_removes_kernel_time_and_applies_factor():
    sampler = speed.Sampler()
    sampler.kernel_s = [2.0 * speed.REFERENCE_S] * 4   # host at half the reference speed
    sampler.wall_s = sampler.cpu_s = 0.02
    out = sampler.scale((0, 0.0, 0.0), wall_s=1.02, cpu_s=0.52)
    assert out["raw_wall_s"] == pytest.approx(1.0)
    assert out["raw_cpu_s"] == pytest.approx(0.5)
    assert out["wall_s"] == pytest.approx(0.5)
    assert out["cpu_s"] == pytest.approx(0.25)
    assert out["samples"] == 4


def test_sampler_ticks_during_work_and_stops():
    sampler = speed.Sampler()
    sampler.start()
    try:
        mark = sampler.mark()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        while time.perf_counter() - wall0 < 0.55:
            pass
        out = sampler.scale(mark, time.perf_counter() - wall0, time.process_time() - cpu0)
    finally:
        sampler.stop()
    assert 4 <= out["samples"] <= 6
    assert out["raw_wall_s"] < 0.55 - 0.5 * out["samples"] * out["kernel_ms"] * 1e-3
    n = len(sampler.kernel_s)
    time.sleep(0.25)
    assert len(sampler.kernel_s) == n
