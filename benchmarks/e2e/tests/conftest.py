"""The benchmark's modules import each other by bare name, as they do
when ``run.py`` runs as a script; put their directory on the path."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
