"""Run one workload of the quon2d benchmark and print its metrics.

    python3 bench/run.py --workload ising_z --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones, with `--trace 1` the per-layer ones.  A
fuller record of the run is written to `bench/results/`.
"""

import os
import time

_START = time.perf_counter()
# one thread: BLAS and OpenMP pools must be sized before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
# numpy asks for transparent huge pages on large arrays; whether the host
# grants them varies from process to process and moved the peak RSS of the
# same run by one 728 x 728 complex matrix
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def import_program():
    """Import quon2d from this checkout's src/, or exit with code 1."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import quon2d
    except ImportError as exc:
        sys.exit(f"bench: cannot import quon2d from {src}: {exc}")
    if Path(quon2d.__file__).resolve().parent.parent != src:
        sys.exit(f"bench: quon2d was imported from {quon2d.__file__}, not from {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ising_z", "circuit_amp", "dense_tensor", "edit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import harness

    summary, detail = harness.run(args.workload, args.seed, args.seconds,
                                  bool(args.trace), _START)

    out_dir = ROOT / "bench" / "results"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps({**detail, **summary}, indent=1) + "\n")
    for fault in detail["faults"]:
        print(f"fault: {fault}", file=sys.stderr)
    print(f"raw wall-time op p50: {detail['raw_op_p50_ms']:.4g} ms", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
