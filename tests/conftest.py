"""Let the interpreters that tests start import this checkout's package,
as pyproject.toml's `pythonpath` does for the test process itself."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
