"""Wall time, minor page faults and system time of one warmed workload pass.

Run from anywhere:

    python3 tools/pass_faults.py lp_sparse 1101

It builds the instances of WORKLOAD (``lp_sparse``, ``cone_blocks`` or
``edesign``) for SEED from ``bench/workloads.py``, read only, solves each once
untimed, then solves each once more and prints that pass's wall seconds, its
minor page faults and system seconds (``resource.getrusage`` of this
process), and its total iterations. A pass that pages in fresh memory on
every Newton step shows as tens of thousands of faults and tenths of a
second of system time, which the benchmark's end-to-end times show only as
a slower solve.

Each solve is ``_bench.solve_instance``'s, which gives a conic instance to
``solve_cones`` with its scipy A, as ``bench/run.py`` solves it. BLAS is
pinned to one thread, as in ``bench/run.py``.
"""

from __future__ import annotations

import resource
import sys
import time

from _bench import bench_module, solve_instance


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    generators = bench_module("workloads").GENERATORS
    if len(argv) != 2 or argv[0] not in generators:
        print(f"usage: pass_faults.py {{{','.join(sorted(generators))}}} SEED", file=sys.stderr)
        return 2
    instances = generators[argv[0]](int(argv[1]))
    for inst in instances:  # untimed pass: first-call costs and lazy imports
        solve_instance(inst)
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    iters = sum(solve_instance(inst).iterations for inst in instances)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)
    print(f"workload {argv[0]} seed {argv[1]}: {len(instances)} instances, {iters} iterations")
    print(f"wall_s {wall:.4f}")
    print(f"minor_faults {after.ru_minflt - before.ru_minflt}")
    print(f"system_s {after.ru_stime - before.ru_stime:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
