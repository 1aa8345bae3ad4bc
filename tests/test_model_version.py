"""Cache keys cover the simulation model, and a tripwire ties its
version to the committed results.

``RunSpec.key()`` hashes ``MODEL_STAMP``: the hand-bumped
``MODEL_VERSION`` and the defaults of the configs no spec carries.
``tests/golden/model_version.json`` pins ``MODEL_VERSION`` together
with a digest of the golden result files; a change that moves those
files without a bump fails here, before any cache serves the old
model's numbers under the new code.  Regenerate the pin with
``PYTHONPATH=src python tests/golden/regen_model_version.py``.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.config import (
    MODEL_VERSION,
    CompetitiveConfig,
    PrefetchConfig,
    TimingConfig,
)
from repro.sweep import RunSpec
from repro.sweep.spec import MODEL_STAMP

GOLDEN_DIR = Path(__file__).parent / "golden"

sys.path.insert(0, str(GOLDEN_DIR))
import regen_model_version as tripwire  # noqa: E402


def test_pinned_version_covers_the_committed_results():
    problem = tripwire.mismatch()
    assert problem is None, problem


def _scratch_results(root: Path) -> Path:
    """Copies of the result files under ``root``, pinned at the current
    ``MODEL_VERSION``; returns the pin's path."""
    for name in tripwire.RESULT_FILES:
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(tripwire.ROOT / name, root / name)
    pin = root / "model_version.json"
    assert tripwire.write(root, MODEL_VERSION, pin)
    return pin


@pytest.mark.parametrize("name", tripwire.RESULT_FILES[:3])
def test_tripwire_fails_on_one_changed_byte(tmp_path, name):
    pin = _scratch_results(tmp_path)
    assert tripwire.mismatch(tmp_path, MODEL_VERSION, pin) is None
    path = tmp_path / name
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 1
    path.write_bytes(bytes(data))
    problem = tripwire.mismatch(tmp_path, MODEL_VERSION, pin)
    assert problem is not None
    assert "bump MODEL_VERSION in src/repro/config.py" in problem
    # a bump alone is not enough: the pin must be regenerated too
    assert "regen_model_version.py" in tripwire.mismatch(
        tmp_path, MODEL_VERSION + 1, pin)


def test_regenerator_refuses_a_new_digest_without_a_bump(tmp_path):
    pin = _scratch_results(tmp_path)
    pinned = pin.read_bytes()
    assert not tripwire.write(tmp_path, MODEL_VERSION, pin)  # up to date
    results = tmp_path / tripwire.RESULT_FILES[0]
    results.write_bytes(results.read_bytes() + b"\n")
    with pytest.raises(SystemExit, match="bump MODEL_VERSION"):
        tripwire.write(tmp_path, MODEL_VERSION, pin)
    with pytest.raises(SystemExit, match="bump MODEL_VERSION"):
        tripwire.write(tmp_path, MODEL_VERSION - 1, pin)
    assert pin.read_bytes() == pinned
    assert tripwire.write(tmp_path, MODEL_VERSION + 1, pin)
    assert tripwire.mismatch(tmp_path, MODEL_VERSION + 1, pin) is None


def test_model_stamp_holds_every_unkeyed_default():
    assert MODEL_STAMP == {
        "version": MODEL_VERSION,
        "timing": dataclasses.asdict(TimingConfig()),
        "prefetch": dataclasses.asdict(PrefetchConfig()),
        "competitive": dataclasses.asdict(CompetitiveConfig()),
    }


#: run in a fresh interpreter under a bare ``repro`` package, so that
#: ``repro/__init__`` does not import the spec module before the patch
_PATCHED_KEY = """
import dataclasses, sys, types
package = types.ModuleType("repro")
package.__path__ = [{package_dir!r}]
sys.modules["repro"] = package
import repro.config as config
assert "repro.sweep.spec" not in sys.modules
names = [f.name for f in dataclasses.fields(config.TimingConfig)]
defaults = list(config.TimingConfig.__init__.__defaults__)
latency = defaults[names.index("memory_latency")] + 16
defaults[names.index("memory_latency")] = latency
config.TimingConfig.__init__.__defaults__ = tuple(defaults)
assert config.TimingConfig().memory_latency == latency
from repro.sweep.spec import MODEL_STAMP, RunSpec
assert MODEL_STAMP["timing"]["memory_latency"] == latency
print(RunSpec.for_run("water", protocol="P").key())
"""


def test_a_changed_timing_default_moves_the_key():
    code = _PATCHED_KEY.format(package_dir=os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert out.stdout.strip() != RunSpec.for_run("water", protocol="P").key()

