"""Let the Python subprocesses that tests start import walkmeg from src/ too."""

import os
from pathlib import Path


def pytest_configure(config):
    src = str(Path(__file__).resolve().parents[1] / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
