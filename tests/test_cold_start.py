"""Cold start: the default flow never imports networkx.

``import repro`` plus one catalog entry runs RTL generation, the
decomposing tool (structural signatures included) and the ViTAL compile.
Only the isomorphism checker ``modules_equivalent`` and the flat-KL
ablation in ``core/flat_partition.py`` import networkx, inside the
function.  A fresh interpreter is needed: the test session itself has
imported networkx already.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
import repro
from repro.runtime import Catalog
Catalog().entry_by_key("lstm-h512-t25")
print(sorted(m for m in sys.modules if m.split(".")[0] == "networkx"))
"""


def test_catalog_entry_does_not_import_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
