"""The same bits at every numpy SIMD dispatch level this CPU has.

numpy picks its loops by CPU feature when it is imported, and
``NPY_DISABLE_CPU_FEATURES`` (read at import, one process only) cuts the
levels above a given one.  Each level runs in its own child process on the
same fixed input arrays, and the outputs are compared as bits.

The wavelet noise threshold selects the median magnitude with numpy's
``partition``: the SIMD selection on AVX2 and AVX-512, the scalar
introselect below them.  An order statistic must not depend on which one
runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import driftlab
from test_wavelet import criterion9_detail

# level -> (features cut, the feature that must be present for the cut to
# change anything)
LEVELS = {
    "X86_V3": ("AVX512_SPR AVX512_ICL X86_V4", "X86_V4"),
    "X86_V2": ("AVX512_SPR AVX512_ICL X86_V4 X86_V3", "X86_V3"),
}

CHILD = """
import json, sys
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
from driftlab._wavelet import universal_threshold
arrays = np.load(sys.argv[1])
print(json.dumps({
    "features": sorted(k for k, on in __cpu_features__.items() if on),
    "thresholds": {name: float(universal_threshold(arrays[name],
                                                   2 * len(arrays[name]))).hex()
                   for name in arrays.files},
}))
"""


def _arrays() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(25)
    ties = rng.integers(-3, 4, size=40_000) * 0.5
    ties[::7] = -0.0
    tiny = rng.normal(size=5_001) * 5e-324
    nan = rng.normal(size=1_000)
    nan[123] = np.nan
    return {
        "criterion9": criterion9_detail(),
        "normal_odd": rng.normal(size=100_001),
        "normal_even": rng.standard_cauchy(size=65_536),
        "ties": ties,
        "subnormal": tiny,
        "overflowing_pair": np.array([1e308, 1.5e308, -1.7e308, 1.6e308]),
        "short": np.array([3.0, -1.0, 2.0]),
        "nan": nan,
    }


def _run(level_cut: str, path: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("NPY_DISABLE_CPU_FEATURES", "NPY_ENABLE_CPU_FEATURES")}
    if level_cut:
        env["NPY_DISABLE_CPU_FEATURES"] = level_cut
    paths = [str(Path(driftlab.__file__).parents[1]), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    done = subprocess.run([sys.executable, "-c", CHILD, str(path)], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def full_dispatch(tmp_path_factory):
    path = tmp_path_factory.mktemp("dispatch") / "arrays.npz"
    np.savez(path, **_arrays())
    return path, _run("", path)


@pytest.mark.parametrize("level", LEVELS)
def test_universal_threshold_bits_at_each_level(full_dispatch, level):
    path, full = full_dispatch
    cut, needs = LEVELS[level]
    if needs not in full["features"]:
        pytest.skip(f"this CPU has no {needs}: cutting it changes nothing")
    got = _run(cut, path)
    assert needs not in got["features"]
    assert got["thresholds"] == full["thresholds"]

