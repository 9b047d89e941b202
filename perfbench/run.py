"""Census benchmark: one workload per invocation, end to end or traced.

    python3 perfbench/run.py --workload pi_census --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory. The seed fixes one round of op inputs (a single op, or
for ``radicand_spectra`` a sample of radicands). Rounds repeat until
``--seconds`` have passed, always finishing the round in progress, and ops
run in a closed loop with one client: each op starts after the previous one
finished. Every op's output is checked; an op that raises or fails its
check counts as failed, and a check failure also makes the run incorrect
(exit 1).

Times are reported in reference seconds. On a shared 2-core machine the
speed available to one process drifts by up to 1.7x over tens of seconds
(a fixed pure-Python loop shows it), far more than the changes the
benchmark should resolve. So the run also times a fixed pure-Python probe
between ops, at most every half second, and scales each measured time by
``PROBE_REF_S`` over the mean of the probes taken just before and just
after it: a reference second is the time the op would take on a machine
that runs the probe in ``PROBE_REF_S``. Wider probe windows tracked the
drift worse. The summary keeps the raw seconds and the probe times.

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``:

- ``wall_s``, ``cpu_s``: median wall and process CPU time (user + sys, all
  threads) of one op. A total per round would be steady only for the
  single-op workloads: the radicand sample's total depends on how many of
  its dozen heavy radicands a seed draws.
- ``op_p50_s``, ``op_p90_s``: percentiles of the op latencies of the run,
  interpolated between order statistics, failed ops included with their
  measured time. ``op_p50_s`` is ``wall_s`` under the name the latency
  percentiles share. ``op_p90_s`` has at least ten samples above it only
  on ``radicand_spectra``; the summary says how many it has. Interpolating
  keeps one slow op of a short run from setting it alone.
- ``peak_rss_mb``: peak RSS of this process, which runs one workload.
- ``setup_s``: median over fresh interpreters of ``import commcensus`` plus
  input generation.
- ``ok_frac``: ops that passed their check over ops attempted, i.e.
  1 - failed_frac (a metric that is never 0).

``--trace 1`` prints the per-layer metrics: rounds run untraced for half the
time, then the tracer is installed and the same ops are replayed.
Counts and self times are per op; ``trace.overhead_frac`` compares the
traced replay with the untraced ops, and ``trace.coverage_frac`` is the
share of op wall time covered by top-level layer spans. For
``chebotarev_scan`` the untraced half also times the library's default
serial call (``census.verify_chebotarev_interval.serial_s``).

The line before the result is a summary: machine, repeat count, median and
quartiles of every sampled metric, and each failed op with its input and
exception type. The summary, and the spans of a traced run, are also
written to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5
PROBE_REF_S = 0.03
PROBE_EVERY_S = 0.5
PROBE_WINDOW = 1  # probes on each side of a measurement that scale it

# imports the package and builds a workload's inputs in a fresh interpreter
_SETUP_SNIPPET = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import commcensus, workloads; "
    "workloads.make_inputs(sys.argv[3], int(sys.argv[4]))"
)


def _deciles(vals: list[float]) -> list[float]:
    """p10 .. p90, interpolated between order statistics."""
    if len(vals) == 1:
        return vals * 9
    return statistics.quantiles(vals, n=10, method="inclusive")


def _stats(vals: list[float]) -> dict:
    out = {"n": len(vals), "median": statistics.median(vals)}
    if len(vals) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(vals, n=4)
    return out


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def machine_record() -> dict:
    import numpy
    import scipy

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines()
                  if ln.startswith("model name")), platform.processor())
    quota = _read("/sys/fs/cgroup/cpu.max")
    if quota is None:
        q, p = _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us"), _read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
        quota = None if q is None else f"{q} {p}"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cgroup_cpu_quota": quota,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


class Probe:
    """Times a fixed pure-Python loop now and then, to track machine speed."""

    def __init__(self):
        self.times: list[float] = []
        self._due = 0.0

    def tick(self, force: bool = False) -> None:
        if not force and time.perf_counter() < self._due:
            return
        t0 = time.perf_counter()
        s = 0
        for i in range(300_000):
            s += i * i % 7
        t1 = time.perf_counter()
        self.times.append(t1 - t0)
        self._due = t1 + PROBE_EVERY_S

    def mark(self) -> int:
        """Position of a measurement taken now in the probe sequence."""
        return len(self.times)

    def scale(self, mark: int) -> float:
        """Factor from measured to reference seconds at a marked position."""
        near = self.times[max(0, mark - PROBE_WINDOW) : mark + PROBE_WINDOW]
        return PROBE_REF_S / statistics.median(near)


def time_setup(workload: str, seed: int, probe: Probe) -> list[tuple[float, int]]:
    """Wall time of fresh interpreters that import the package and make inputs."""
    cmd = [sys.executable, "-c", _SETUP_SNIPPET, str(SRC), str(ROOT / "perfbench"),
           workload, str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        probe.tick(force=True)
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append((time.perf_counter() - t0, probe.mark()))
    probe.tick(force=True)
    return times


class Runner:
    """Runs and checks ops of one workload, keeping failures and probe times."""

    def __init__(self, run, check, check_error):
        self._run = run
        self._check = check
        self._check_error = check_error
        self.attempted = 0
        self.failures: list[dict] = []
        self.correct = True
        self.probe = Probe()

    def round(self, inputs, **kw) -> list[tuple[float, float, int]]:
        """Run one round of ops; (wall, cpu, probe mark) of each."""
        # start every round from a clean heap, as a fresh CLI process would:
        # the census enumeration leaves reference cycles that otherwise pile
        # up until a full collection and make later ops slower and bigger
        gc.collect()
        return [self.op(x, **kw) for x in inputs]

    def op(self, x, run=None, check=None, tracer=None) -> tuple[float, float, int]:
        """Run one op on input x; returns its measured (wall, cpu) seconds
        and its position among the probes."""
        run, check = run or self._run, check or self._check
        self.attempted += 1
        err = None
        self.probe.tick()
        mark = self.probe.mark()
        if tracer is not None:
            tracer.begin_op(self.attempted)
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out = run(x)
        except Exception as exc:  # a raising op is a failed op, recorded below
            err = exc
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if tracer is not None:
            tracer.end_op()
        self.probe.tick()
        if err is None:
            try:
                check(x, out)
            except self._check_error as exc:
                err = exc
                self.correct = False
        if err is not None:
            self.failures.append({"op": self.attempted, "input": x,
                                  "error": type(err).__name__, "message": str(err)[:200]})
        return wall, cpu, mark


def e2e_run(args, runner: Runner, inputs) -> tuple[dict, dict]:
    probe = runner.probe
    setups = time_setup(args.workload, args.seed, probe)
    ops = []
    deadline = time.perf_counter() + args.seconds
    while not ops or time.perf_counter() < deadline:
        ops += runner.round(inputs)
    probe.tick(force=True)
    walls = [probe.scale(m) * w for w, _, m in ops]
    cpus = [probe.scale(m) * c for _, c, m in ops]
    deciles = _deciles(walls)
    p90 = deciles[8]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "op_p50_s": deciles[4],
        "op_p90_s": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(probe.scale(m) * t for t, m in setups),
        "ok_frac": 1 - len(runner.failures) / runner.attempted,
    }
    detail = {
        "stats": {"wall_s": _stats(walls), "cpu_s": _stats(cpus)},
        "raw_stats": {"wall_s": _stats([w for w, _, _ in ops]),
                      "cpu_s": _stats([c for _, c, _ in ops]),
                      "setup_s": _stats([t for t, _ in setups]),
                      "probe_s": _stats(probe.times)},
        "op_p90_samples_above": sum(1 for v in walls if v > p90),
    }
    return metrics, detail


def _trace_targets():
    from commcensus import arith, census, cli, gf2, quadratic, quaternion, spectra
    from commcensus.errors import FactorBudgetError
    from commcensus.quadratic import SplitType

    def count_primes(rec, out):
        rec.bump("primes", len(out))

    def count_nonsplit(rec, out):
        if out is not SplitType.SPLIT:
            rec.bump("nonsplit")

    def count_budget(rec, exc):
        if isinstance(exc, FactorBudgetError):
            rec.bump("budget_errors")

    plain = [
        (arith, "is_prime"), (arith, "kronecker"), (arith, "pell_fundamental"),
        (quadratic, "field_from_d"), (quadratic, "norm_one_unit"),
        (quaternion, "RamSet"), (quaternion, "algebra_class"),
        (spectra, "geodesic_class"), (spectra, "spectrum_from_inputs"),
        (census, "pi_of_V"), (census, "short_interval_delta"),
        (census, "verify_chebotarev_interval"), (census, "nonsplit_is_finite"),
        (gf2, "rank"), (gf2, "left_kernel"), (gf2, "solve"), (cli, "main"),
    ]
    targets = [(m, a, f"{m.__name__.split('.')[-1]}.{a}", None, None) for m, a in plain]
    targets += [
        (arith, "sieve_segment", "arith.sieve_segment", count_primes, None),
        (arith, "factorize", "arith.factorize", None, count_budget),
        (quadratic, "splitting", "quadratic.splitting", count_nonsplit, None),
    ]
    return targets


def layer_metric(name: str, totals: dict, n_ops: int, k: float, special: dict) -> float:
    """Per-op value of `<span name or prefix>.<stat>`; times in reference seconds."""
    if name in special:
        return special[name]
    layer, stat = name.rsplit(".", 1)
    rows = [v for key, v in totals.items() if key == layer or key.startswith(layer + ".")]
    if stat == "nonsplit_ratio":
        calls = sum(r["calls"] for r in rows)
        return sum(r.get("nonsplit", 0) for r in rows) / calls if calls else 0.0
    total = sum(r.get(stat, 0) for r in rows)
    return total * (k if stat.endswith("_s") else 1) / n_ops


def traced_run(args, runner: Runner, inputs, per_layer_names) -> tuple[dict, dict]:
    from tracer import Tracer

    import workloads

    probe = runner.probe
    untraced, serial, rounds = [], [], 0
    deadline = time.perf_counter() + args.seconds / 2
    while not rounds or time.perf_counter() < deadline:
        untraced += runner.round(inputs)
        rounds += 1
        if args.workload == "chebotarev_scan":
            serial += runner.round([workloads.cheb_fields()], run=workloads.cheb_serial,
                                   check=workloads.cheb_serial_check)
    tracer = Tracer()
    tracer.install(_trace_targets())
    try:
        traced = [op for _ in range(rounds) for op in runner.round(inputs, tracer=tracer)]
    finally:
        tracer.uninstall()
    probe.tick(force=True)
    k_traced = statistics.median(probe.scale(m) for _, _, m in traced)

    def ref_total(ops):
        return sum(probe.scale(m) * w for w, _, m in ops)

    special = {
        "trace.overhead_frac": ref_total(traced) / ref_total(untraced) - 1,
        "trace.coverage_frac": tracer.coverage(),
        "census.verify_chebotarev_interval.serial_s":
            statistics.median(probe.scale(m) * w for w, _, m in serial) if serial else 0.0,
    }
    totals = tracer.layer_totals()
    n_ops = len(traced)
    metrics = {n: layer_metric(n, totals, n_ops, k_traced, special) for n in per_layer_names}
    detail = {
        "raw_stats": {"untraced_wall_s": _stats([w for w, _, _ in untraced]),
                      "traced_wall_s": _stats([w for w, _, _ in traced]),
                      "probe_s": _stats(probe.times),
                      **({"serial_s": _stats([w for w, _, _ in serial])} if serial else {})},
        "traced_reference_scale": k_traced,
        "layer_totals_raw": totals,
        "spans": tracer.dump(),
    }
    return metrics, detail


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "commcensus" / "__init__.py").is_file():
        print(f"no package source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import commcensus

    if Path(commcensus.__file__).resolve().parent != SRC / "commcensus":
        print(f"imported commcensus from {commcensus.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    make, run, check = workloads.WORKLOADS[args.workload]
    runner = Runner(run, check, workloads.CheckFailed)
    inputs = make(args.seed)
    if args.trace:
        wanted = [m["name"] for m in bench["per_layer"]]
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values, detail = traced_run(args, runner, inputs, wanted)
    else:
        wanted = [m["name"] for m in bench["end_to_end"]]
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        values, detail = e2e_run(args, runner, inputs)
    metrics = {n: {"value": values[n], "unit": units[n]} for n in wanted}
    spans = detail.pop("spans", None)
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_record(), "ops": runner.attempted,
        "failed_frac": len(runner.failures) / runner.attempted,
        "failures": runner.failures, **detail,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"summary": summary, "metrics": metrics, "spans": spans},
                                   default=repr))
    print(json.dumps({"summary": summary}, default=repr))
    print(json.dumps({"correct": runner.correct, "attempted": runner.attempted,
                      "failed": len(runner.failures), "metrics": metrics}))
    return 0 if runner.correct else 1


if __name__ == "__main__":
    sys.exit(main())
