"""End-to-end benchmark of the ``repro`` serving and ingest surfaces.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root.  See
``perfbench/README.md`` for the metrics, workloads and the layer map.
"""
