"""Benchmark of the neckspec CLI on fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, untraced and traced

A run writes the workload's config from the seed, then repeats rounds for
about S seconds. A round is one fresh interpreter (perfbench/worker.py)
that imports neckspec.cli and runs the workload's commands one after
another: a closed loop with one client, NECKSPEC_THREADS unset. Every
command of every round is one operation; it fails on a nonzero exit, on
any failed check in oracles.py, or when its tables differ byte-wise from
those the command wrote in the first round of the same run that it exited 0.

With --trace 0 the run reports the end-to-end metrics setup_s, wall_s and
peak_rss_mb, each the median over the run. With --trace 1 it alternates
untraced and traced rounds and reports the per-layer metrics of
tracing.py, the tracing overhead and the share of wall_s its spans cover.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Scratch files go to
.perfbench_out/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")

import oracles  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# probe times of worker.py at the reference speed: the median probe times
# measured on the reference machine of README.md, so that scaled and unscaled
# figures agree there. A round's wall time is scaled by reference / measured
# probe time of the workload's probe kind, set-up by that of the "setup"
# probe sampled during the import.
REFERENCE_PROBE_S = {"setup": 0.00033, "interpreter": 0.00082, "lapack": 0.00064}
MIN_SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 150


class BenchmarkError(Exception):
    """The benchmark itself could not measure (not a failed operation)."""


def _child(args: list[str], what: str) -> None:
    env = dict(os.environ)
    env.pop("NECKSPEC_THREADS", None)
    # let the warm-up write bytecode, as an installed package would have it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{what} did not finish in {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"{what} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")


def spawn_worker(base: str, tag: str, commands: list, trace: bool, blas: bool = False):
    """Run one worker; returns (set-up seconds, result dict)."""
    request = os.path.join(base, f"{tag}.request.json")
    result_path = os.path.join(base, f"{tag}.result.json")
    with open(request, "w", encoding="utf-8") as fh:
        json.dump({"commands": commands, "trace": trace, "result": result_path,
                   "blas": blas}, fh)
    started = time.monotonic()
    _child([os.path.join(HERE, "worker.py"), ROOT, request], f"worker {tag}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    os.unlink(request)
    os.unlink(result_path)
    return result["ready"] - started, result


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.config = self.workload.config(seed)
        self.base = os.path.join(OUT, workload, f"seed{seed}-trace{int(trace)}")
        shutil.rmtree(self.base, ignore_errors=True)
        os.makedirs(self.base)
        self.config_path = os.path.join(self.base, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.config, fh, indent=1)
        # table digests of each command's first round of this run that exited 0
        self.reference: dict[str, dict[str, str]] = {}
        self.glue = None
        self.rounds: list[dict] = []
        self.attempted = self.failed = 0
        self.wrong = False
        self.problems: list[str] = []

    # -- checks ---------------------------------------------------------

    def recompute_glue(self) -> None:
        path = os.path.join(self.base, "glue_recompute.json")
        _child([os.path.join(HERE, "oracles.py"), "glue", self.config_path, path],
               "glue recompute")
        with open(path, encoding="utf-8") as fh:
            self.glue = json.load(fh)

    def table_problems(self, cmd: str, out_dir: str, stdout: str) -> list[str]:
        cfg = self.config
        files = {}
        for name in os.listdir(out_dir):
            if name.endswith((".csv", ".dat")):
                with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                    files[name] = fh.read()
        try:
            if cmd == "glue":
                problems = oracles.glue_stdout_problems(stdout, cfg["spectrum"], cfg["degrees"],
                                                        cfg["T"])
                for q in cfg["degrees"]:
                    for T in cfg["T"]:
                        key = f"q{q}_T{oracles.fmt_real(T)}"
                        expected = self.glue[key]
                        problems += expected["problems"]
                        problems += oracles.glue_table_problems(
                            files[f"glue_{key}.csv"], T, expected)
                return problems
            if cmd == "density":
                return oracles.density_problems(files, cfg["spectrum"], cfg["degrees"], cfg["T"],
                                                cfg["s"], cfg.get("h", 1 / 16))
            if cmd == "roots":
                return oracles.roots_problems(files["roots.csv"], cfg["spectrum"], cfg["degrees"])
            if cmd == "q0check":
                return oracles.q0_problems(files["q0_residuals.csv"], files["q0_normfit.csv"],
                                           cfg["degrees"], cfg["h"], cfg["T"])
            if cmd == "paircheck":
                return oracles.paircheck_problems(files["paircheck.csv"])
        except (KeyError, ValueError, IndexError) as exc:
            return [f"unreadable or missing table: {type(exc).__name__}: {exc}"]
        raise BenchmarkError(f"no oracle for command {cmd!r}")

    # -- rounds ---------------------------------------------------------

    @staticmethod
    def setup_times(seconds: float, result: dict) -> tuple[float, float]:
        """(scaled, unscaled) set-up seconds, without the sampling time."""
        net = seconds - result["setup_spent_s"]
        return net * REFERENCE_PROBE_S["setup"] / result["probe_s"]["setup"], net

    def round(self, traced: bool) -> None:
        k = len(self.rounds)
        round_dir = os.path.join(self.base, f"r{k}")
        commands = [[cmd, self.config_path, os.path.join(round_dir, cmd)]
                    for cmd in self.workload.commands]
        started = time.monotonic()
        setup, result = spawn_worker(self.base, f"r{k}", commands, traced, blas=k == 0)
        kind = self.workload.probe
        for (cmd, _, out_dir), res in zip(commands, result["commands"]):
            self.attempted += 1
            if res["rc"] != 0:
                self.failed += 1
                self.problems.append(f"round {k} {cmd}: exit code {res['rc']}: "
                                     f"{(res['stdout'] + res['stderr']).strip()[-500:]}")
                continue
            found = oracles.digests(out_dir)
            problems = self.table_problems(cmd, out_dir, res["stdout"])
            problems += oracles.digest_problems(self.reference.setdefault(cmd, found), found)
            if problems:
                self.failed += 1
                self.wrong = True
                self.problems += [f"round {k} {cmd}: {p}" for p in problems]
        shutil.rmtree(round_dir, ignore_errors=True)
        scaled_setup, raw_setup = self.setup_times(setup, result)
        entry = {"traced": traced, "raw_setup_s": raw_setup, "raw_wall_s": result["wall_s"],
                 "setup_s": scaled_setup,
                 "wall_s": result["wall_s"] * REFERENCE_PROBE_S[kind] / result["probe_s"][kind],
                 "probe_s": result["probe_s"],
                 "peak_rss_mb": result["peak_rss_mb"], "duration": time.monotonic() - started}
        for key in ("layers", "covered_s", "spans", "blas"):
            if key in result:
                entry[key] = result[key]
        self.rounds.append(entry)

    def execute(self) -> None:
        spawn_worker(self.base, "warmup", [], False)  # byte-compiles and fills the file cache
        if "glue" in self.workload.commands:
            self.recompute_glue()
        window_start = time.monotonic()
        while True:
            batch = time.monotonic()
            if self.trace:
                self.round(traced=False)
                self.round(traced=True)
            else:
                self.round(traced=False)
            now = time.monotonic()
            if now - window_start + (now - batch) > self.seconds:
                break
        if not self.trace:
            setups = [(r["setup_s"], r["raw_setup_s"]) for r in self.rounds]
            while len(setups) < MIN_SETUP_SAMPLES:
                setups.append(self.setup_times(
                    *spawn_worker(self.base, f"setup{len(setups)}", [], False)))
            self.setup_samples = setups

    # -- report ---------------------------------------------------------

    def metrics(self) -> dict:
        plain = [r for r in self.rounds if not r["traced"]]
        if not self.trace:
            values = {
                "setup_s": statistics.median(s for s, _ in self.setup_samples),
                "wall_s": statistics.median(r["wall_s"] for r in plain),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            }
            return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        traced = [r for r in self.rounds if r["traced"]]
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in LAYER_METRICS if not name.startswith("trace.")}
        wall = statistics.median(r["raw_wall_s"] for r in traced)
        untraced = statistics.median(r["raw_wall_s"] for r in plain)
        values["trace.wall_s"] = wall
        values["trace.untraced_wall_s"] = untraced
        values["trace.overhead"] = wall / untraced - 1.0
        values["trace.span_share"] = statistics.median(r["covered_s"] / r["raw_wall_s"]
                                                       for r in traced)
        # counts are whole numbers; report them as such
        return {k: {"value": int(v) if LAYER_METRICS[k][0] in ("count", "bytes") else v,
                    "unit": LAYER_METRICS[k][0]} for k, v in values.items()}

    def write_spans(self) -> None:
        path = os.path.join(OUT, self.workload.name, f"spans-seed{self.seed}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for k, r in enumerate(self.rounds):
                for span in r.get("spans", ()):
                    fh.write(json.dumps({"round": k, **span}) + "\n")

    def report(self) -> dict:
        metrics = self.metrics()
        plain = sum(not r["traced"] for r in self.rounds)
        print(f"workload {self.workload.name} seed {self.seed} trace {int(self.trace)}: "
              f"{len(self.rounds)} rounds ({plain} untraced), operations attempted "
              f"{self.attempted}, failed {self.failed}")
        if "blas" in self.rounds[0]:
            print(f"  BLAS threads: {json.dumps(self.rounds[0]['blas'])}")
        for p in self.problems:
            print(f"  FAIL {p}")
        if not self.trace:
            probes = ", ".join(
                f"{kind} {statistics.median(r['probe_s'][kind] for r in self.rounds) * 1e3:.3f} ms"
                for kind in REFERENCE_PROBE_S)
            print(f"  unscaled medians: setup "
                  f"{statistics.median(raw for _, raw in self.setup_samples):.4f} s, wall "
                  f"{statistics.median(r['raw_wall_s'] for r in self.rounds):.4f} s; "
                  f"probes {probes}; scaled to the reference speed below")
        for name, m in metrics.items():
            shown = f"{m['value']:.6g}"
            if name == "spectral_density.window_hit_share" and m["value"] == 0.0:
                shown = "n/a"
            print(f"  {name:42s} {shown:>14s} {m['unit']}")
        if self.trace:
            self.write_spans()
        return {"correct": not self.wrong, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "neckspec", "cli.py")):
        print(f"error: no neckspec sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.workload == "all":
        plan = [(w, t) for w in WORKLOADS for t in (False, True)]
    else:
        plan = [(args.workload, bool(args.trace))]
    for workload, trace in plan:
        run = Run(workload, args.seed, args.seconds, trace)
        try:
            run.execute()
        except BenchmarkError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(run.report()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
