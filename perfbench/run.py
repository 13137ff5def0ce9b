"""Benchmark of the sdtlearn experiment pipeline, end to end and per module.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke

One closed-loop client runs the workload's fixed, seeded list of
experiments through ``run_experiment`` in this process, each starting when
the previous one returns: one full pass, then on through the list again
until --seconds of experiment time are measured.  This process never
installs a wrapper.  A separate traced process (child.py, tracing.py) runs
the list once with spans around each module, and with --trace 0 five
fresh processes time set-up.  Both are interleaved with the timed
experiments, one step at a time and never concurrently, so that timed and
traced runs of an experiment sit next to each other and the timed samples
spread over the whole run rather than one stretch of a machine whose
speed drifts.  Every report is checked (checks.py) and must match the
traced run's report byte for byte.

The last line of stdout is one JSON object with the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1).  The lines before it
give the machine, a digest of the reports and every metric with its unit.
``--smoke`` runs every workload on tiny instances in both modes and checks
that every declared metric is printed with its unit and that each traced
experiment's self times add up to its wall time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

from boot import ROOT, THREAD_VARS, BootError, boot

CHILD = ROOT / "perfbench" / "child.py"
OUT_DIR = ROOT / "perfbench" / "out"
CHILD_TIMEOUT_S = 150
SETUP_RUNS = 5
#: Smoke mode's limit on |sum of self times - experiment wall| / wall.
SELF_SUM_TOLERANCE = 0.05
#: End-to-end metrics printed before the result line but left out of it:
#: failed_frac is 0 whenever outputs are correct, and the result line
#: already carries the failure count as ``failed``.
EXTRA_METRICS = ("failed_frac",)


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def setup_seconds(workload) -> float:
    """Spawn to ready: interpreter start, imports and one warm-up experiment."""
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, str(CHILD), "setup", "--workload", workload.name],
        stdout=subprocess.PIPE, text=True,
    ) as proc:
        try:
            line = proc.stdout.readline()
            ready = perf_counter() - start
            proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up process exited with {proc.returncode}")
    return ready


class TracedChild:
    """The traced process, asked for one experiment at a time."""

    def __init__(self, workload, seed: int, tiny: bool) -> None:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.path = OUT_DIR / f"{workload.name}-seed{seed}{'-tiny' if tiny else ''}.trace.jsonl"
        cmd = [sys.executable, str(CHILD), "traced", "--workload", workload.name,
               "--seed", str(seed), "--trace-file", str(self.path)]
        if tiny:
            cmd.append("--tiny")
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def _line(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"traced process exited with {self.proc.wait()}")
        return line

    def wait_ready(self) -> None:
        if self._line().strip() != "ready":
            raise RuntimeError("traced process did not start")

    def run(self, k: int) -> dict:
        self.proc.stdin.write(f"{k}\n")
        self.proc.stdin.flush()
        return json.loads(self._line())

    def finish(self) -> list[dict]:
        """Close the input, wait for the trace file and read its spans."""
        self.proc.stdin.close()
        if self.proc.wait(timeout=CHILD_TIMEOUT_S) != 0:
            raise RuntimeError(f"traced process exited with {self.proc.returncode}")
        with open(self.path) as fh:
            return [json.loads(ln) for ln in fh]

    def __enter__(self) -> "TracedChild":
        return self

    def __exit__(self, *exc) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except BrokenPipeError:
                pass  # the child is gone; nothing left to flush to


def verify(configs: list, timed: list[str | None], traced: list[dict]) -> tuple[int, dict[int, list[str]]]:
    """(failed timed experiments, problems by list index).

    A timed experiment fails if it raised, if its report differs from the
    traced run's, or if the traced run's report of it fails a check.
    """
    from checks import check_report

    problems: dict[int, list[str]] = {}
    for k, (cfg, ref) in enumerate(zip(configs, traced)):
        if ref["report"] is None or ref["capture"] is None:
            problems[k] = ["raised in the traced run"]
        elif found := check_report(cfg, ref["report"], ref["capture"]):
            problems[k] = found
    failed = 0
    for i, rep in enumerate(timed):
        k = i % len(configs)
        if rep is not None and rep != traced[k]["report"]:
            problems.setdefault(k, []).append(f"timed pass {i // len(configs)} differs from the traced report")
        failed += rep is None or k in problems
    return failed, problems


def measure(workload, seed: int, seconds: float, trace: int, tiny: bool = False) -> dict:
    import sdtlearn.harness as harness
    from tracing import inclusive_shares, layer_metrics, self_sum_errors

    configs = workload.configs(seed, tiny)
    setup_runs = 0 if trace else SETUP_RUNS
    walls: list[float] = []
    timed: list[str | None] = []
    traced: list[dict] = []
    setups: list[float] = []
    with TracedChild(workload, seed, tiny) as child:
        harness.run_experiment(workload.tiny)  # warm-up: lazy HiGHS and BLAS set-up
        child.wait_ready()
        while len(walls) < len(configs) or sum(walls) < seconds:
            t = perf_counter()
            try:
                timed.append(harness.run_experiment(configs[len(walls) % len(configs)]).to_json())
            except Exception:
                traceback.print_exc()
                timed.append(None)
            walls.append(perf_counter() - t)
            if len(traced) < len(configs):
                traced.append(child.run(len(traced)))
            if len(setups) < setup_runs:
                setups.append(setup_seconds(workload))
        setups += [setup_seconds(workload) for _ in range(setup_runs - len(setups))]
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        spans = child.finish()
    failed, problems = verify(configs, timed, traced)

    first = [json.loads(r) for r in timed[: len(configs)] if r is not None]
    e2e = {
        "experiments_per_s": (len(walls) / sum(walls), "1/s"),
        "experiment_s.p50": (statistics.median(walls), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "guarantee_pass_rate": (sum(r["margin"] <= 0 for r in first) / len(first) if first else 0.0, "fraction"),
        "failed_frac": (failed / len(walls), "fraction"),
    }
    if setups:
        e2e["setup_s"] = (statistics.median(setups), "s")

    traced_walls = [t["wall"] for t in traced]
    layers = layer_metrics(spans, len(configs))
    excess = statistics.fmean(r["hypothesis_error"] - r["opt"] for r in first) if first else 0.0
    layers["excess_error.mean"] = (excess, "fraction")
    layers["trace.overhead"] = (sum(traced_walls) / sum(walls[: len(configs)]) - 1.0, "fraction")
    digest = hashlib.sha256("\n".join(r or "" for r in timed[: len(configs)]).encode()).hexdigest()
    return {
        "result": {
            "correct": failed == 0 and not problems,
            "attempted": len(walls),
            "failed": failed,
            "metrics": {n: v for n, v in e2e.items() if n not in EXTRA_METRICS} if trace == 0 else layers,
        },
        "e2e": e2e,
        "layers": layers,
        "problems": problems,
        "digest": digest,
        "passes": len(walls) / len(configs),
        "timed_s": sum(walls),
        "inclusive": inclusive_shares(spans),
        "self_sum_error": max(self_sum_errors(spans, traced_walls)),
    }


def report(workload, seed: int, out: dict) -> None:
    res = out["result"]
    print(f"workload {workload.name} seed {seed}: {res['attempted']} experiments in "
          f"{out['timed_s']:.2f} s ({out['passes']:.2f} passes over a list of {workload.list_len}), "
          f"{res['failed']} failed; experiment_s.p50 is the median of {res['attempted']} samples")
    print(f"reports sha256 {out['digest']} (information only)")
    for k, found in sorted(out["problems"].items()):
        print(f"FAILED experiment {k}: {'; '.join(found)}")
    for name, (value, unit) in {**out["e2e"], **out["layers"]}.items():
        print(f"metric {name} = {value!r} {unit}")
    shares = {n[: -len(".share")]: v for n, (v, _) in out["layers"].items() if n.endswith(".share")}
    top = max(shares, key=shares.get)
    print(f"dominant span {top} ({shares[top]:.3f} of traced experiment time, self)")
    print("inclusive shares of the spans called by run_experiment: "
          + " ".join(f"{n}={v:.3f}" for n, v in out["inclusive"].items()))


def result_line(res: dict) -> str:
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in res["metrics"].items()}
    return json.dumps({**res, "metrics": metrics})


def smoke(workloads: dict) -> int:
    """Run every workload on tiny instances in both modes; exit 1 on a problem."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads):
        problems.append("BENCHMARK.json and workloads.py name different workloads")
    for workload in workloads.values():
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            out = measure(workload, 0, 0.0, trace, tiny=True)
            report(workload, 0, out)
            printed = {n: u for n, (_, u) in out["result"]["metrics"].items()}
            declared = {m["name"]: m["unit"] for m in spec[section]}
            if printed != declared:
                problems.append(f"{workload.name} --trace {trace}: printed {printed}, declared {declared}")
            if not out["result"]["correct"]:
                problems.append(f"{workload.name} --trace {trace}: outputs incorrect")
            if out["self_sum_error"] > SELF_SUM_TOLERANCE:
                problems.append(f"{workload.name}: self times miss the wall time by {out['self_sum_error']:.1%}")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny instances, both modes, self-check")
    args = parser.parse_args(argv)
    try:
        boot()
    except BootError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    print("machine " + json.dumps(machine()))
    if args.smoke:
        return smoke(WORKLOADS)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    out = measure(workload, args.seed, args.seconds, args.trace)
    report(workload, args.seed, out)
    print(result_line(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
