"""hkmod benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload {cli-mix,survey,large} --seed N --seconds S --trace {0,1}

Run from the repository root; hkmod is imported from ./src. The workload's
operation list is built from the seed, then run in as many whole passes as
fit in S seconds (at least two), one operation in flight at a time.
Every output is compared with the oracle. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}, where the metrics
are the end-to-end ones with --trace 0 and the per-layer ones with
--trace 1. See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import cli_mix
import large
import survey
from common import classify
from tracing import LAYERS, Tracer, layer_summary, layer_modules

WORKLOADS = ("cli-mix", "survey", "large")
SETUP_SAMPLES = 9  # one in this process, the rest in fresh interpreters
HERE = Path(__file__).resolve().parent


class Workload:
    """A built operation list and the context its operations are called with.

    Construction is the timed set-up: the inputs made from the seed, hkmod
    imported and warmed up. The expected answers are computed afterwards,
    by `resolve`, so the oracle's own cost stays out of `setup_s`.
    """

    def __init__(self, name: str, seed: int, root: Path, tmpdir: Path, limit: int | None = None):
        self.name, self.root, self.tmpdir = name, root, tmpdir
        tmpdir.mkdir(parents=True, exist_ok=True)
        if name == "cli-mix":
            self.ops = cli_mix.build(seed, tmpdir, limit)
            self.plain = cli_mix.Launcher(root)
            self.plain(["--help"])  # warm-up: byte-compile and page in hkmod
        else:
            module = survey if name == "survey" else large
            self.ops = module.build(seed, limit)
            self.plain = layer_modules()
            module.warm(self.plain, self.ops)

    def resolve(self) -> None:
        for op in self.ops:
            op.expected = op.oracle()

    def traced(self, tracer: Tracer):
        if self.name == "cli-mix":
            return cli_mix.Launcher(self.root, tracer, self.tmpdir / "spans.json")
        return layer_modules(tracer)


def setup(name: str, seed: int, root: Path, tmpdir: Path, limit=None,
          resolve: bool = True) -> tuple[Workload, float]:
    """The workload and its set-up seconds; the oracle runs after the timer."""
    t0 = time.perf_counter()
    wl = Workload(name, seed, root, tmpdir, limit)
    seconds = time.perf_counter() - t0
    if resolve:
        wl.resolve()
    return wl, seconds


def setup_in_fresh_interpreters(args, root: Path, count: int) -> list[float]:
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=root, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        out.append(float(proc.stdout.split()[-1]))
    return out


def cpu_now() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(wl: Workload, ctx, tracer: Tracer | None, log: dict) -> list[tuple[float, float]]:
    """One pass over the operation list; returns (wall s, cpu s) of each operation."""
    times = []
    for op in wl.ops:
        raised = raw = None
        c0, t0 = cpu_now(), time.perf_counter()
        try:
            if tracer is not None and wl.name != "cli-mix":
                with tracer.span(f"op.{op.name}"):
                    raw = op.call(ctx)
            else:
                raw = op.call(ctx)
        except Exception as exc:
            raised = exc
        dt, dc = time.perf_counter() - t0, cpu_now() - c0
        times.append((dt, dc))
        outcome = classify(op, raw, raised)
        log["outcomes"][outcome] += 1
        if outcome != "ok":
            log["bad"][(op.name, outcome, explain(op, raw, raised)[:160])] += 1
    return times


def explain(op, raw, raised) -> str:
    if raised is not None:
        return f"{type(raised).__name__}: {raised}"
    if isinstance(raw, tuple):
        code, _, stderr = raw
        if "Traceback" in stderr:
            return "traceback: " + stderr.strip().splitlines()[-1]
        if code != op.expected[0]:
            return f"exit {code}, expected {op.expected[0]}"
    return "different answer"


def best_of_passes(passes: list[list[tuple[float, float]]], which: int) -> list[float]:
    """Each operation's fastest wall (0) or CPU (1) seconds across the passes.

    The cores are shared: over a run the same operation is up to half again
    slower while neighbours are busy, and the share of busy time varies from
    run to run. The best of k repeats, as timeit reports, tracks the code.
    """
    return [min(p[i][which] for p in passes) for i in range(len(passes[0]))]


def measure(wl: Workload, seconds: float, trace: bool) -> dict:
    """Whole passes that fit in `seconds`, at least two; with trace, untraced and
    traced passes alternate."""
    log = {"outcomes": Counter(), "bad": Counter()}
    tracer = Tracer() if trace else None
    traced_ctx = wl.traced(tracer) if trace else None
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if trace and len(plain) > len(traced):
            traced.append(run_pass(wl, traced_ctx, tracer, log))
        else:
            plain.append(run_pass(wl, wl.plain, None, log))
        done = len(plain) + len(traced)
        elapsed = time.perf_counter() - start
        balanced = not trace or len(plain) == len(traced)
        if done >= 2 and balanced and elapsed + (time.perf_counter() - t0) > seconds:
            break
    return {"log": log, "plain": plain, "traced": traced, "tracer": tracer}


def median_us_per_call(fn, calls: int, repeats: int = 7) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn()
        samples.append((time.perf_counter_ns() - t0) / calls)
    return statistics.median(samples) / 1e3


def unit_costs(seed: int) -> dict:
    """Per-call cost of the hottest small calls, timed in batches without spans."""
    L = layer_modules()
    rng = random.Random(f"units:{seed}")
    coords = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(500)]
    ns = L.walls.EllipticNS(rng.choice((2, 4, 6)), rng.randint(1, 12))
    lat = ns.lattice
    vs = [L.lattice.vec(c) for c in coords]
    pairs = list(zip(vs, vs[1:] + vs[:1]))
    cases = []
    for r0 in range(1, 6):
        i = 1 if r0 % 2 else 2
        cases += [(i, r0, e) for e in range(2, 400, 2) if L.hilb2.econ_check(r0, e)
                  and L.hilb2.divisibility_type(e, i) and (2 * i) % e][:4]
    pair, vec, unicita = L.lattice.pair, L.lattice.vec, L.hilb2.unicita_report
    return {
        "lattice.vec_us": median_us_per_call(lambda: [vec(c) for c in coords], len(coords)),
        "lattice.pair_us": median_us_per_call(lambda: [pair(lat, v, w) for v, w in pairs], len(pairs)),
        "walls.q_us": median_us_per_call(lambda: [ns.q(v, w) for v, w in pairs], len(pairs)),
        "hilb2.unicita_us": median_us_per_call(lambda: [unicita(*c) for c in cases], len(cases)),
    }


def cli_costs(root: Path, env: dict, repeats: int = 7) -> dict:
    """Bare interpreter start, and import times of hkmod.cli and hkmod.verify."""
    interp, imp, imp_verify = [], [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env, check=True, timeout=60)
        interp.append(time.perf_counter() - t0)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hkmod.cli"],
                              cwd=root, env=env, capture_output=True, text=True, check=True, timeout=60)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]))
        imp.append(cumulative["hkmod.cli"] / 1000)
        imp_verify.append(cumulative["hkmod.verify"] / 1000)
    return {
        "cli.interp_ms": 1000 * statistics.median(interp),
        "cli.import_ms": statistics.median(imp),
        "cli.import_verify_ms": statistics.median(imp_verify),
    }


def cli_main_probe(seed: int, tmpdir: Path, passes: int = 3) -> dict:
    """Median in-process `hkmod.cli.main(argv)` time per subcommand, stdout captured.

    The cli-mix query list runs `passes` times in this process, untraced;
    the first pass is a warm-up and is not counted.
    """
    import hkmod.cli as cli

    samples = defaultdict(list)
    ops = cli_mix.build(seed, tmpdir)
    for n in range(passes):
        for op in ops:
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    cli.main(op.argv)
                except SystemExit:  # argparse usage errors
                    pass
            if n:
                samples[op.argv[0]].append(1000 * (time.perf_counter() - t0))
    return {f"cli.main_ms.{sub}": statistics.median(samples[sub]) if samples[sub] else 0.0
            for sub in cli_mix.SUBCOMMANDS}


def end_to_end(wl: Workload, result: dict, setup_samples: list[float], peak_rss_mb: float) -> dict:
    lat = best_of_passes(result["plain"], 0)
    return {
        "run_s": ("s", sum(lat)),
        "op_p50_ms": ("ms", 1000 * statistics.median(lat)),
        "op_p90_ms": ("ms", 1000 * statistics.quantiles(lat, n=10)[8]),
        "cpu_s": ("s", sum(best_of_passes(result["plain"], 1))),
        "setup_s": ("s", statistics.median(setup_samples)),
        "peak_rss_mb": ("MB", peak_rss_mb),
    }


def per_layer(wl: Workload, result: dict, seed: int) -> dict:
    spans = result["tracer"].spans
    passes = len(result["traced"])
    summary = layer_summary(spans, passes)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = ("count", summary[f"{layer}.calls"])
        out[f"{layer}.busy_ms"] = ("ms", summary[f"{layer}.busy_ms"])
        out[f"{layer}.fails"] = ("count", summary[f"{layer}.fails"])
    for name, value in cli_costs(wl.root, cli_mix.child_env(wl.root)).items():
        out[name] = ("ms", value)
    for name, value in cli_main_probe(seed, wl.tmpdir).items():
        out[name] = ("ms", value)
    for name, value in unit_costs(seed).items():
        out[name] = ("us", value)
    out["walls.enumerate_ms"] = ("ms", summary["walls.enumerate_ms"])
    out["walls.classes_out"] = ("count", summary["classes_out"])
    out["fujiki.top_intersection_ms"] = ("ms", summary["fujiki.top_intersection_ms"])
    out["fujiki.matchings"] = ("count", summary["matchings"])
    out["nl.search_steps"] = ("count", summary["search_steps"])
    out["nl.cap_exceeded"] = ("count", summary["cap_exceeded"])
    out["jsonio.bytes_out"] = ("bytes", summary["bytes_out"])
    plain_s = sum(best_of_passes(result["plain"], 0))
    traced_s = sum(best_of_passes(result["traced"], 0))
    out["trace.run_s"] = ("s", traced_s)
    out["trace.overhead_s"] = ("s", traced_s - plain_s)
    return out


def report(args, wl: Workload, result: dict, metrics: dict) -> None:
    log = result["log"]
    attempted = sum(log["outcomes"].values())
    failed = attempted - log["outcomes"]["ok"]
    passes = len(result["plain"]) + len(result["traced"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client  {passes} passes x {len(wl.ops)} operations")
    for name, (unit, value) in metrics.items():
        print(f"  {name:34s} {value:14.4f} {unit}")
    print(f"  timings: each operation's best of {len(result['plain'])} untraced passes; "
          f"latency percentiles over {len(wl.ops)} operations")
    print(f"  fail_ratio {failed / attempted:.4f} ({failed}/{attempted}); "
          f"wrong answers {log['outcomes']['wrong']}")
    for (name, outcome, why), count in sorted(log["bad"].items()):
        print(f"    {outcome}: {name} x{count}: {why}")
    print(json.dumps({
        "correct": log["outcomes"]["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (unit, value) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hkmod" / "__init__.py").is_file():
        print(f"error: no hkmod sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    tmpdir = root / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    try:
        wl, first_setup = setup(args.workload, args.seed, root, tmpdir, resolve=not args.setup_probe)
        hkmod = sys.modules.get("hkmod")
        if hkmod is not None and root.resolve() / "src" not in Path(hkmod.__file__).resolve().parents:
            print(f"error: hkmod was imported from {hkmod.__file__}, not from ./src", file=sys.stderr)
            return 2
        if args.setup_probe:
            print(first_setup)
            return 0
        result = measure(wl, args.seconds, bool(args.trace))
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli-mix" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024
        if args.trace:
            metrics = per_layer(wl, result, args.seed)
        else:
            samples = [first_setup] + setup_in_fresh_interpreters(args, root, SETUP_SAMPLES - 1)
            metrics = end_to_end(wl, result, samples, peak_rss_mb)
        report(args, wl, result, metrics)
        return 0
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            tmpdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    raise SystemExit(main())
