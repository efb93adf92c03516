"""The package's import weight: importing it loads no test-only dependency."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PROBE = (
    "import json, sys, hazardnet, hazardnet.cli; "
    "print(json.dumps([hazardnet.__file__, sorted(m for m in sys.modules "
    "if m.split('.')[0] in ('scipy', 'hypothesis', 'pytest'))]))"
)


def test_package_import_loads_no_scipy_hypothesis_or_pytest():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    location, loaded = json.loads(done.stdout.splitlines()[-1])
    assert Path(location).resolve().parent == SRC / "hazardnet"
    assert loaded == []
