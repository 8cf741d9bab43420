"""The CTS flow benchmark: seeded end-to-end workloads driven through the
public ``repro`` API, plus out-of-tree span tracing for per-layer accounting.

Run it from the repository root with ``python3 flowbench/run.py --workload
<name> --seed <n> --seconds <s> --trace <0|1>``; see ``flowbench/README.md``.
"""
