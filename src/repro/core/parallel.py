"""Retired: the row-major table has one build driver, the batched sweep.

This module used to hold a builder that ran the batched sweep in worker
processes and merged the rows.  It never beat the serial sweep and has
been deleted.  The module stays, empty, only because the end-to-end
benchmark's tracer (``perfbench/tracer.py``) imports
``repro.core.parallel`` by name in its ``PRELOAD`` list.  The benchmark
step of ROADMAP item 1 drops it from that list and deletes this file.
"""
