"""Regenerate ``tests/golden/model_version.json``, the model-version
tripwire checked by tests/test_model_version.py.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regen_model_version.py

The file pins ``repro.config.MODEL_VERSION`` together with a sha256
over the bytes of the committed golden results (``RESULT_FILES``).
The parity tests force those files to move whenever a simulated result
does; the tripwire test recomputes the digest from the files, without
simulating, and fails when they moved while the version did not.

So a change that moves a result regenerates its goldens, bumps
``MODEL_VERSION`` (which moves every result-cache key, so no cache
serves the old model's numbers under the new code) and then runs this
script.  It refuses to pin anything new unless ``MODEL_VERSION`` is
greater than the pinned version.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.config import MODEL_VERSION

#: the committed results a model change moves, relative to the
#: repository root, in digest order.
RESULT_FILES = (
    "tests/golden/epoch_parity.json",
    "tests/golden/extension_parity.json",
    "tests/golden/issue_loop_parity.json",
    "benchmarks/e2e/expected.json",
)

ROOT = Path(__file__).resolve().parents[2]
OUT = Path(__file__).with_name("model_version.json")

_REGEN = "PYTHONPATH=src python tests/golden/regen_model_version.py"


def results_digest(root: Path = ROOT) -> str:
    """sha256 over the bytes of every result file, in listed order."""
    digest = hashlib.sha256()
    for name in RESULT_FILES:
        digest.update((root / name).read_bytes())
    return digest.hexdigest()


def mismatch(root: Path = ROOT, version: int = MODEL_VERSION,
             pin_path: Path = OUT) -> str | None:
    """Why the pin does not match ``version`` and the result files
    under ``root``, naming the fix; None when it matches."""
    pin = json.loads(pin_path.read_text())
    pinned = pin["model_version"]
    if version == pinned:
        if results_digest(root) == pin["digest"]:
            return None
        return (f"the golden results moved while MODEL_VERSION stayed at "
                f"{version}: bump MODEL_VERSION in src/repro/config.py, "
                f"then run {_REGEN}")
    if version < pinned:
        return (f"MODEL_VERSION is {version}, below the pinned {pinned}: "
                f"set it above {pinned}, then run {_REGEN}")
    return (f"MODEL_VERSION is {version} but {pin_path.name} pins "
            f"{pinned}: run {_REGEN}")


def write(root: Path = ROOT, version: int = MODEL_VERSION,
          pin_path: Path = OUT) -> bool:
    """Pin ``version`` and the results' digest; False when the pin
    already says so.  Raises :class:`SystemExit` rather than pin
    anything new under a version that is not above the pinned one."""
    new = {"digest": results_digest(root), "model_version": version}
    if pin_path.exists():
        pin = json.loads(pin_path.read_text())
        if pin == new:
            return False
        if version <= pin["model_version"]:
            raise SystemExit(
                f"refusing to pin a new digest under MODEL_VERSION "
                f"{version}: {pin_path.name} pins version "
                f"{pin['model_version']}; bump MODEL_VERSION in "
                "src/repro/config.py first"
            )
    pin_path.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    return True


if __name__ == "__main__":
    changed = write()
    print(f"{OUT.name}: MODEL_VERSION {MODEL_VERSION}, "
          f"{'written' if changed else 'already up to date'}",
          file=sys.stderr)
