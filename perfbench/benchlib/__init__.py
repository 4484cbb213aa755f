"""Helpers of the repository benchmark (``perfbench/run.py``).

The modules here are imported by ``perfbench/run.py``, by the launcher that
starts ``repro serve`` / ``repro route`` processes, and by the benchmark's
own tests.  None of them starts a process or opens a file on import.
"""
