"""Outside-in benchmark harness for the repro pipelines (replay, commit, http, sweep).

Everything here drives the program through its public front doors with
their defaults; spans are recorded only in this package's own wrappers.
See ``perfbench/README.md`` for the workload table and metric map.
"""
