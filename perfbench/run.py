#!/usr/bin/env python3
"""harmcert benchmark: closed-loop workloads, output checks, traced layers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan-generic --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

One caller issues one top-level call at a time (closed loop).  With
``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1`` it
prints the per-layer metrics of a traced run.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# numpy reads these when it is imported, so they are set before any import
# of numpy, here and (through the environment) in every child process.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

SETUP_REPEATS = 7
START_REPEATS = 5
WORKLOAD_NAMES = ("scan-generic", "scan-ties", "radius-cert", "cli-files")

# ROADMAP.md baseline table (ms), compared against per-degree medians.
ROADMAP_MS = {
    "harmonic_membership": {3: 0.23, 64: 2.3, 256: 15.6},
    "stable_family_check": {3: 12.0, 64: 82.0, 256: 526.0},
    "harmonic_radius_certify.starlike": {3: 40.0, 64: 95.0, 256: 4840.0},
    "harmonic_radius_certify.convex": {3: 39.0, 64: 470.0, 256: 7630.0},
    "curve": {3: 169.0, 64: 114.0, 256: 156.0},
}
BUCKETS = (3, 16, 64, 256)


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _src_sha256() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "harmcert")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip() or "unavailable"


def provenance(args) -> dict:
    import numpy as np
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "git_commit": _git_commit(),
        "harmcert_src_sha256": _src_sha256(),
        "machine": platform.machine(),
    }


class SetupProbes:
    """Cold set-ups: a fresh process imports harmcert and builds the
    workload's inputs through harmcert's constructors (oracle excluded).

    The host's speed drifts over seconds, so the probes are spread over
    the run, between passes, and ``setup_s`` is their median."""

    def __init__(self, args, workdir: str):
        self.argv = [sys.executable, os.path.abspath(__file__),
                     "--probe-setup", "--workload", args.workload,
                     "--seed", str(args.seed), "--workdir", workdir]
        self.times: list[float] = []

    def probe(self) -> None:
        proc = subprocess.run(self.argv, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            _fail(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        self.times.append(float(proc.stdout))

    def catch_up(self, fraction: float) -> None:
        """Probe until the share of probes taken matches the share of the
        run done."""
        due = min(SETUP_REPEATS, math.ceil(SETUP_REPEATS * fraction))
        while len(self.times) < due:
            self.probe()

    def median(self) -> float:
        self.catch_up(1.0)
        return statistics.median(self.times)


def measure_process_start(env: dict) -> float:
    argv = [sys.executable, "-c", "import harmcert.cli"]
    times = []
    for _ in range(START_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probe_setup(args) -> None:
    t0 = time.perf_counter()
    import workloads
    probe_dir = tempfile.mkdtemp(dir=args.workdir)
    workloads.build(args.workload, args.seed, probe_dir)
    elapsed = time.perf_counter() - t0
    shutil.rmtree(probe_dir)
    print(repr(elapsed))


class Runner:
    """Runs the calls of a workload in a closed loop and checks each one."""

    def __init__(self, w, subprocess_cli: bool):
        import workloads
        self.wl = workloads
        self.w = w
        self.subprocess_cli = subprocess_cli and w.name == "cli-files"
        self.env = workloads.cli_env(SRC)

    def call(self, call):
        if self.subprocess_cli:
            return self.wl.run_cli_subprocess(call.argv, self.env,
                                              self.w.workdir)
        return self.wl.invoke(call)

    def one(self, call, around=None):
        t0 = time.perf_counter()
        try:
            out = around(self.call, call) if around else self.call(call)
        except Exception as exc:  # a raising call is a counted failure
            out = exc
        dt = time.perf_counter() - t0
        if self.subprocess_cli:
            out = self.wl.read_cli_output(out, self.w.workdir)
        return out, dt

    def warmup(self) -> None:
        """One untimed call per operation, the smallest degree first, so
        lazy imports and first-call set-up are not timed."""
        first = {}
        for call in self.w.calls:
            if call.op not in first or call.degree < first[call.op].degree:
                first[call.op] = call
        for call in first.values():
            out, _ = self.one(call)
            self.wl.check(call, out)

    def passes(self, seconds: float, around=None, min_passes: int = 1,
               after_pass=None) -> "Tally":
        """Whole passes over the calls until ``seconds`` have elapsed and
        ``min_passes`` are done; ``after_pass(fraction)`` is told the share
        of the run completed."""
        tally = Tally(self.w.calls, self.wl.KNOWN_DEFECTS)
        start = time.perf_counter()
        while (tally.passes < min_passes
               or time.perf_counter() - start < seconds):
            for index, call in enumerate(self.w.calls):
                out, dt = self.one(call, around)
                tally.add(index, dt, self.wl.check(call, out),
                          self.wl.radius_of(call, out),
                          getattr(out, "maxrss_kb", None))
            tally.passes += 1
            if after_pass is not None:
                elapsed = time.perf_counter() - start
                expected = max(seconds, min_passes * elapsed / tally.passes)
                after_pass(elapsed / expected)
            if around is not None:
                break
        return tally


class Tally:
    """What a run keeps: each call's fastest latency, and each distinct
    call's outcome.  Each call is timed once per pass, so its timings are a
    pass apart; the fastest one drops the slow spells of a shared host.

    ``attempted`` and ``failed`` count distinct calls, not executions: how
    many passes fit in ``--seconds`` depends on the host's speed, and a
    count over passes would make the same seed report different failure
    counts on two runs.  A call fails when any of its executions fails, and
    an execution whose outcome differs from the call's first one is a
    failure of its own kind.  Nothing grows with the number of passes, so
    peak RSS does not depend on how many fit in the run."""

    def __init__(self, calls, known_defects):
        self.calls = calls
        self.known_defects = known_defects
        self.best = [math.inf] * len(calls)
        self.total_s = 0.0
        self.passes = 0
        self.executed = 0
        self.first: dict[int, str | None] = {}
        self.failures: dict[int, str] = {}
        self.radii: list[float] = []
        self.rss_kb = 0

    def add(self, index: int, dt: float, failure: str | None,
            radius: float | None, rss_kb: int | None) -> None:
        self.best[index] = min(self.best[index], dt)
        self.total_s += dt
        self.executed += 1
        if index not in self.first:
            self.first[index] = failure
        elif failure != self.first[index]:
            failure = (f"outcome changed between passes (first: "
                       f"{self.first[index] or 'correct'})")
        if failure and index not in self.failures:
            self.failures[index] = failure
        if radius is not None and self.passes == 0:
            self.radii.append(radius)
        if rss_kb is not None:
            self.rss_kb = max(self.rss_kb, rss_kb)

    @property
    def attempted(self) -> int:
        return len(self.first)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        return all(f in self.known_defects for f in self.failures.values())

    @property
    def kinds(self) -> dict[str, int]:
        """Failed calls by operation and reason."""
        kinds: dict[str, int] = {}
        for index, failure in sorted(self.failures.items()):
            key = f"{self.calls[index].op}: {failure}"
            key += " [known defect]" if failure in self.known_defects else ""
            kinds[key] = kinds.get(key, 0) + 1
        return kinds


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta(p(n+1), (1-p)(n+1))
    weighted mean of the order statistics.  Unlike a single order statistic
    it does not jump when the quantile falls between two clusters of
    latencies, as it does with a few discrete degrees per workload."""
    import numpy as np
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    t = np.linspace(0.0, 1.0, 200001)[1:-1]
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf - log_pdf.max())),
                          [0.0]))
    cdf[-1] = cdf[-2]
    cdf /= cdf[-1]
    grid = np.concatenate(([0.0], t, [1.0]))
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ x)


def breakdown(tally: Tally) -> list[dict]:
    rows = []
    for op in ROADMAP_MS:
        for d in BUCKETS:
            dts = [dt for call, dt in zip(tally.calls, tally.best)
                   if call.op == op and call.degree == d]
            if not dts:
                continue
            ms = 1e3 * statistics.median(dts)
            ref = ROADMAP_MS[op].get(d)
            row = {"call": op, "degree": d, "median_ms": round(ms, 3),
                   "samples": len(dts), "roadmap_ms": ref}
            if ref is not None and not 0.5 <= ms / ref <= 2.0:
                row["note"] = f"off by {ms / ref:.2f}x from the ROADMAP table"
            rows.append(row)
    return rows


def end_to_end(tally: Tally, setup_s: float, subprocess_cli: bool) -> dict:
    dts = tally.best
    if subprocess_cli:
        rss_kb = tally.rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": setup_s,
        "calls_per_s": len(dts) / sum(dts),
        "latency_p50_ms": 1e3 * hd_quantile(dts, 0.5),
        "latency_p90_ms": 1e3 * hd_quantile(dts, 0.9),
        "peak_rss_mb": rss_kb / 1024.0,
        "failed_frac": tally.failed / tally.attempted,
        "radius_mean": statistics.fmean(tally.radii) if tally.radii else None,
    }


def per_layer(tracer, tally: Tally, untraced_s: float, start_s: float | None
              ) -> dict:
    s = tracer.summary()

    def calls(name):
        return s.get(f"{name}.calls", 0)

    scans = (calls("membership.boundary_sup")
             + calls("membership.paired_boundary_sup"))
    polish = tracer.calls_under(
        "series.eval_series",
        ("membership.boundary_sup", "membership.paired_boundary_sup"))
    certs = calls("geometry.harmonic_radius_certify")
    radii = tally.radii
    s.update({
        "membership.polish_evals_per_scan": polish / scans if scans else 0.0,
        "membership.scans_per_call":
            (scans + calls("membership.zeta_family_sup")) / tally.executed,
        "geometry.sections_per_cert":
            calls("geometry.radius_certify") / certs if certs else 0.0,
        "geometry.radius_mean": statistics.fmean(radii) if radii else 0.0,
        "cli.process_start_s": start_s if start_s is not None else 0.0,
        "trace.overhead_frac": tally.total_s / untraced_s - 1.0,
    })
    return s


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def emit(title: str, listed: list[dict], values: dict, extra: dict) -> dict:
    """Print every listed metric by name and unit; return the JSON form."""
    print(title)
    out = {}
    for m in listed:
        name = m["name"]
        if name not in values:
            _fail(f"metric {name} was not measured")
        v = values[name]
        out[name] = {"value": v, "unit": m["unit"]}
        print(f"  {name:<44} {v:>16.6g} {m['unit']:<14} "
              f"({m['better']} is better)")
    for name, (v, unit) in extra.items():
        shown = "n/a" if v is None else f"{v:.6g}"
        print(f"  {name:<44} {shown:>16} {unit}")
    return out


def run_workload(args) -> None:
    spec = load_spec()
    import tracing
    import workloads as wl

    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            tracer.install()
            w = tracer.root("setup", wl.build, args.workload, args.seed,
                            workdir)
            tracer.uninstall()
        else:
            w = wl.build(args.workload, args.seed, workdir)
        wl.attach_oracle(w)
        runner = Runner(w, subprocess_cli=not args.trace)
        runner.warmup()
        print(f"workload: {args.workload}  seed: {args.seed}  "
              f"trace: {args.trace}  calls per pass: {len(w.calls)}")
        print("provenance: " + json.dumps(provenance(args)))
        if not tracer:
            probes = SetupProbes(args, workdir)
            probes.probe()
            tally = runner.passes(args.seconds, min_passes=w.min_passes,
                                  after_pass=probes.catch_up)
            e2e = end_to_end(tally, probes.median(), runner.subprocess_cli)
            metrics = emit("end-to-end (untraced):", spec["end_to_end"], e2e, {
                "failed_frac": (e2e["failed_frac"], "fraction (lower is better)"),
                "radius_mean": (e2e["radius_mean"],
                                "unit-disk radius (higher is better)"),
                "timed_calls": (tally.executed, "count"),
                "passes": (tally.passes, "count"),
            })
            print("roadmap-table breakdown: " + json.dumps(breakdown(tally)))
        else:
            untraced_s = runner.passes(0.0).total_s
            tracer.install()
            try:
                tally = runner.passes(
                    0.0, around=lambda fn, c: tracer.root("call", fn, c))
            finally:
                tracer.uninstall()
            start_s = (measure_process_start(runner.env)
                       if args.workload == "cli-files" else None)
            layers = per_layer(tracer, tally, untraced_s, start_s)
            metrics = emit("per-layer (traced):", spec["per_layer"], layers,
                           {"trace.spans": (len(tracer.fid), "count")})
            print("all layer counters: " + json.dumps(
                {k: layers[k] for k in sorted(layers)}))
        print("failures: " + json.dumps(tally.kinds))
        print(json.dumps({"correct": tally.correct,
                          "attempted": tally.attempted,
                          "failed": tally.failed, "metrics": metrics}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> None:
    """Each workload in its own child process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=900)
        if proc.returncode != 0:
            _fail(f"{name} failed: {proc.stderr.strip()[-400:]}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
        print()
    print(json.dumps(combined))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "harmcert", "__init__.py")):
        _fail(f"harmcert sources not found under {SRC}")
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        _fail("BENCHMARK.json not found at the checkout root")
    sys.path.insert(0, SRC)
    if args.probe_setup:
        probe_setup(args)
    elif args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
