"""One benchmark round in a fresh interpreter.

    python3 perfbench/worker.py ROOT REQUEST.json

Imports ``neckspec.cli`` from ROOT/src first, so the parent can time set-up
from its own spawn to the monotonic stamp taken right after that import.
Then it runs the requested CLI commands one after another in this
process, optionally traced, and writes a JSON result to the path the
request names.

Other tenants of the machine change how fast this process runs within
seconds, and not by the same factor for all code: interpreted Python
slows by up to a factor of two while compiled LAPACK loops barely move.
So a Sampler times fixed pieces of work of each kind while the import and
the commands run, and the parent scales the measured times to a fixed
reference speed (see README.md).
"""

import os
import signal
import sys
import time

PERIOD_S = 0.05


def interpreted_loop() -> None:
    acc = 0
    for j in range(5_000):
        acc += j * j


class Sampler:
    """Times each piece of work in ``works`` every ``period`` seconds of
    wall time, from an interval timer that interrupts the main thread.

    The handler's own time is kept in ``spent``, to be taken off the wall
    time it interrupted. A handler due during a long native call runs when
    the call returns. With ``period`` None it samples only on entry and
    exit, so that no sampling time lands inside a traced span.
    """

    def __init__(self, works: dict, period: float | None):
        self.works = works
        self.period = period
        self.samples = {kind: [] for kind in works}
        self.spent = 0.0

    def sample(self) -> None:
        for kind, work in self.works.items():
            start = time.perf_counter()
            work()
            self.samples[kind].append(time.perf_counter() - start)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.sample()
        self.spent += time.perf_counter() - start

    def harmonic_means(self) -> dict[str, float]:
        """Per kind, the probe time whose inverse is the mean speed over the
        sampled span: work done is the integral of speed over time, and
        samples are evenly spaced in time. A sample stretched by a context
        switch weighs little here, where it would dominate a plain mean."""
        return {kind: len(v) / sum(1.0 / t for t in v) for kind, v in self.samples.items()}

    def __enter__(self):
        self.sample()
        if self.period is not None:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        if self.period is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
        return False


def command_works() -> dict:
    """The two probe kinds of the commands: an interpreted loop with sums
    over an array that fits in L2, and a small tridiagonal eigensolve."""
    import numpy as np
    import scipy.linalg

    array = np.linspace(0.0, 1.0, 100_000)
    diag, off = np.full(160, 2.0), np.full(159, -1.0)

    def interpreter():
        interpreted_loop()
        for _ in range(10):
            array.sum()

    def lapack():
        scipy.linalg.eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 9))

    return {"interpreter": interpreter, "lapack": lapack}


def main() -> int:
    root, request_path = sys.argv[1], sys.argv[2]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    with Sampler({"setup": interpreted_loop}, PERIOD_S) as setup_probe:
        import neckspec.cli as cli
    ready = time.monotonic()

    import contextlib
    import io
    import json
    import resource
    import traceback

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"neckspec imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    with open(request_path, encoding="utf-8") as fh:
        request = json.load(fh)

    tracer = None
    if request["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    commands = []
    with Sampler(command_works(), None if tracer else PERIOD_S) as probe:
        for cmd, config, out in request["commands"]:
            stdout, stderr = io.StringIO(), io.StringIO()
            spent = probe.spent
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    rc = cli.main([cmd, "--config", config, "--out", out])
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a failed operation, reported with its traceback
                rc = -1
                stderr.write(traceback.format_exc())
            wall = time.perf_counter() - start - (probe.spent - spent)
            commands.append({"cmd": cmd, "rc": rc, "wall_s": wall,
                             "stdout": stdout.getvalue(), "stderr": stderr.getvalue()})

    setup_samples = setup_probe.samples["setup"]
    result = {
        "ready": ready,
        # every sample taken before `ready`: the entry sample, the ticks and the exit sample
        "setup_spent_s": setup_probe.spent + setup_samples[0] + setup_samples[-1],
        "probe_s": {**setup_probe.harmonic_means(), **probe.harmonic_means()},
        "commands": commands,
        "wall_s": sum(c["wall_s"] for c in commands),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        from tracing import layer_metrics

        result["layers"] = layer_metrics(tracer)
        result["covered_s"] = tracer.covered()
        result["spans"] = tracer.spans
    if request.get("blas"):
        result["blas"] = blas_threads()
    with open(request["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def blas_threads() -> dict:
    """Thread count of every OpenBLAS loaded into this process, plus the
    environment variables that set it."""
    import ctypes

    import numpy  # noqa: F401  (loads numpy's BLAS)
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                       and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS") if k in os.environ}
    return {"libraries": found, "env": env}


if __name__ == "__main__":
    sys.exit(main())
