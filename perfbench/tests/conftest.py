import sys
from pathlib import Path

# the benchmark's modules are scripts' siblings, imported by plain name
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
