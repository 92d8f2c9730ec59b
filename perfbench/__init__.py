"""coupler-lab benchmark: see README.md and run.py."""
