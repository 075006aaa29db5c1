"""Time one benchmark set-up in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/setup_probe.py <workload> <seed>

Set-up is importing lagdeform and building the workload's jobs: parsing the
problems and, for ``geodesic``, synthesizing Phi and drawing the starts.
Prints the seconds as measured and as rescaled by the ruler.
``run.py`` runs this several times and reports the median as ``setup_s``.
"""

import sys

import ruler


def setup(workload: str, seed: int) -> None:
    import workloads

    workloads.setup(workload, seed)


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    with ruler.Timer() as timer:
        _, error, raw_seconds, seconds = timer.time(lambda: setup(workload, seed))
    if error is not None:
        raise error
    print(raw_seconds, seconds)


if __name__ == "__main__":
    main()
