"""Set-up probe: import flocksim, build a workload's first config, initialize it.

Prints ``ready`` once ``engine.initialize`` has returned, so the parent can
time a fresh interpreter from start to the first step being ready.  Run by
run.py; takes the same ``--workload``, ``--seed`` and ``--tiny`` arguments.
"""

import argparse


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    import workloads
    from flocksim import engine

    wl = workloads.make(args.workload, args.seed, tiny=args.tiny)
    engine.initialize(wl.setup_config())
    print("ready", flush=True)


if __name__ == "__main__":
    main()
