"""branchkit benchmark harness; run it with ``python3 bench/run.py``."""
