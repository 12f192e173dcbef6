"""Set-up time of one workload in a fresh process.

    python3 perfbench/setup_probe.py CONFIG.json

Prints the seconds from before `import pfcontrol` until the config is loaded,
the spec built and the first-call caches are filled (the grid Laplacian, and
the Helmholtz factorization behind a random starting control, where the
config has one), i.e. up to the first solver call; then the mean time of the
SETUP_KERNEL reference kernel of speed.py, run right after. `run.py` times
the kernel just before it starts the process too, scales the set-up time to
the reference speed by the mean of the two kernel times, and reports the
median over several processes as setup_s. The CLI builds a new grid for
every command, so each operation of a run fills these caches again, and
wall_s includes them as well.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

# Importing and configuring is interpreted work, like the assembly kernel's.
SETUP_KERNEL = "assembly"
# Timed kernel runs next to one set-up, here and in run.py.
KERNEL_RUNS = 10


def warm(config_path: str):
    """Import pfcontrol, load the config, build the spec and fill the grid's
    first-call caches, as the first command of a fresh process would."""
    from pfcontrol.config import load_config

    cfg = load_config(config_path)
    cfg.initial_control()
    cfg.spec.grid.laplacian
    return cfg


if __name__ == "__main__":
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    warm(sys.argv[1])
    setup = time.perf_counter() - start
    import speed

    kernel = speed.KERNELS[SETUP_KERNEL]
    speed.time_kernel(kernel)
    print(repr(setup), repr(speed.kernel_mean(kernel, KERNEL_RUNS)))
