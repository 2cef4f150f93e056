"""Serving benchmark of the BRSMN stack: three seeded workloads, one
command (``python3 servebench/run.py``), and a traced run that splits
each frame's time across the layers it crosses.  See ``README.md``.
"""
