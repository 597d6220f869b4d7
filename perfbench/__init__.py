"""The repository benchmark: four workloads, end-to-end and per-layer.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` adds a separately traced pass and
prints the per-layer metrics.  See ``perfbench/METRICS.md`` for every
metric's definition and the layer -> metric -> workload map.
"""
