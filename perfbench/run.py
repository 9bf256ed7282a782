"""limext benchmark: one closed-loop client feeding seeded payloads to the CLI.

Run from the repository root:

    python3 perfbench/run.py --workload structure --seed 1 --seconds 20 --trace 0

Workloads are described in perfbench/README.md.  `--trace 0` prints the
end-to-end metrics; `--trace 1` wraps the library's public functions (from
this directory, not from src/) and prints the per-layer metrics.  The last
line of standard output is the JSON result; the line before it is a record
of the machine and the run.  Spans and records are also written under
.bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from checks import CheckFailed, check_output, digest
from tracing import DISCARDING_CALLERS, LAYER_METRICS, LIMEXT_MODULES, Tracer, import_times
from workloads import WORKLOADS, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
SETUPS = 7


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(code)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_cli():
    """A fresh import of limext.cli from src/, as a new process would do it."""
    for name in [m for m in sys.modules if m == "limext" or m.startswith("limext.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("limext.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"limext was imported from {cli.__file__}, not from {SRC}")
    return cli


def call_inprocess(cli, p):
    """One payload through limext.cli.main; returns (seconds, status, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            status = cli.main([p.cmd, p.text])
        except Exception as exc:  # a traceback for a CLI user: counted as failed
            status = type(exc).__name__
        t1 = perf_counter()
    return t1 - t0, status, out.getvalue()


def call_cold(p, env):
    """One payload through a fresh `python -m limext.cli` process."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "limext.cli", p.cmd, p.text], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    t1 = perf_counter()
    status = proc.returncode
    if proc.stderr:
        status = f"stderr: {proc.stderr.strip().splitlines()[-1][:200]}"
    return t1 - t0, status, proc.stdout


class Tally:
    """Timings and outcomes of a run.  Each output is checked as soon as its
    call returns, outside the timed interval, and then dropped."""

    def __init__(self, seed):
        self.samples: list[tuple] = []          # (slot, seconds, ok)
        self.failures: Counter = Counter()      # payload kind -> failed samples
        self.examples: dict[str, str] = {}      # "cycle:slot" -> reason, first few
        self.correct = True
        self.rng = random.Random(f"limext-check:{seed}")
        with DIGESTS.open() as fh:
            self.digests = json.load(fh)

    def add(self, p, seconds, status, text):
        reason = None
        if status != 0:
            reason = f"did not run cleanly: {status}"
        else:
            try:
                check_output(p.expect, text, self.rng, self.digests)
            except (CheckFailed, ValueError, KeyError, TypeError) as exc:
                reason = f"{type(exc).__name__}: {exc}"
                # A known defect may fail to run; a wrong answer is never correct.
                self.correct = False
        if reason and not p.defect:
            self.correct = False
        if reason:
            self.failures[p.kind] += 1
            if len(self.examples) < 20:
                self.examples[f"{p.cycle}:{p.slot}"] = f"{p.kind}: {reason}"[:300]
        self.samples.append((p.slot, seconds, reason is None))


def timed_loop(call, workload, seed, first_cycle, seconds, tally, before=None, after=None):
    """Whole cycles from `first_cycle` on until `seconds` of in-call time have
    passed; returns the next cycle number.

    Each cycle's payloads are generated just before it runs.  Time spent by
    the benchmark between calls (generating, checking, trace bookkeeping) is
    not counted.
    """
    busy, cycle = 0.0, first_cycle
    while cycle == first_cycle or busy < seconds:
        for p in generate(workload, seed, cycle):
            if before:
                before(p)
            dt, status, text = call(p)
            if after:
                after()
            busy += dt
            tally.add(p, dt, status, text)
        cycle += 1
    return cycle


def slot_medians(tally):
    """Per payload slot, the median time over cycles, once as measured and
    once with failed samples ranked slower than every success."""
    times, ranked = defaultdict(list), defaultdict(list)
    for slot, s, ok in tally.samples:
        times[slot].append(s)
        ranked[slot].append(s if ok else math.inf)
    return ([statistics.median(v) for v in times.values()],
            [statistics.median(v) for v in ranked.values()])


def throughput(tally):
    """Correct results per second: the success rate over a typical cycle,
    whose length is the sum of the slot medians."""
    times, _ = slot_medians(tally)
    ok = sum(s[2] for s in tally.samples) / len(tally.samples)
    return ok * len(times) / sum(times)


def end_to_end(tally, seconds, setup_s, rss_mb):
    """The six end-to-end metrics, plus what the record needs to re-check them.

    Latencies are percentiles over the payload slots of a cycle, each slot
    taken at its median over the run's cycles.  The tail is the highest
    percentile with ten slots beyond it.
    """
    _, ranked = slot_medians(tally)
    ranked.sort()
    n = len(ranked)
    tail_rank = max(1, n - 10)

    def ms(x):
        # Should a percentile land on a failed slot, it is charged the whole
        # run length.
        return (x if x != math.inf else seconds) * 1000

    ok = sum(s[2] for s in tally.samples)
    metrics = {
        "payloads_per_s": (throughput(tally), "1/s"),
        "latency_p50_ms": (ms(statistics.median(ranked)), "ms"),
        "latency_tail_ms": (ms(ranked[tail_rank - 1]), "ms"),
        "success_rate": (ok / len(tally.samples), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    info = {"samples": len(tally.samples), "slots": n,
            "error_rate": 1 - ok / len(tally.samples),
            "tail_percentile": round(100 * tail_rank / n, 2), "tail_slots_beyond": n - tail_rank}
    return metrics, info


def layer_metrics(probe, self_s, samples, untraced_pps, traced_pps, imports):
    """Per-layer values keyed and ordered as tracing.LAYER_METRICS, with units.

    Counts come from the probe's one cycle; self times are per payload over
    the traced cycles of this run.
    """
    calls, fails = Counter(probe["calls"]), Counter(probe["failures"])
    snf_calls = calls["matrices.smith_normal_form"]
    pf_calls = calls["numutil.prime_factors"]
    m = {
        "cli.load_schema.calls": probe["load_schema_calls"],
        "cli.emit_bytes": probe["emit_bytes"] / probe["payloads"],
        "cli.import_ms": imports["total"],
        "matrices.smith_normal_form.max_entry_bits": probe["snf_max_entry_bits"],
        "matrices.smith_normal_form.transforms_discarded_ratio": (
            sum(probe["snf_parents"].get(c, 0) for c in DISCARDING_CALLERS) / snf_calls
            if snf_calls else 0.0),
        "numutil.prime_factors.max_input_bits": probe["pf_max_input_bits"],
        "numutil.prime_factors.failures": fails["numutil.prime_factors"],
        "numutil.prime_factors.repeat_ratio": probe["pf_repeats"] / pf_calls if pf_calls else 0.0,
        "inverse_systems.lim1_classify.failures": (
            fails["inverse_systems.lim1_classify.recursive"]
            + fails["inverse_systems.lim1_classify.ext_oracle"]),
        "trace.untraced_payloads_per_s": untraced_pps,
        "trace.traced_payloads_per_s": traced_pps,
        "trace.overhead_pct": 100 * (untraced_pps - traced_pps) / untraced_pps,
    }
    for mod in LIMEXT_MODULES:
        m[f"cli.import_ms.{mod}"] = imports.get(mod, 0.0)
    out = {}
    for name, unit, _ in LAYER_METRICS:
        if name not in m:
            # <span>.calls counts the probe's cycle; <span>.self_ms is per payload.
            span, kind = name.rsplit(".", 1)
            m[name] = calls[span] if kind == "calls" else self_s[span] * 1000 / samples
        out[name] = (m[name], unit)
    return out


# Counts that must repeat exactly between two fresh runs of the same seed.
STEADY = ("payloads", "generated", "snf_max_entry_bits", "pf_calls", "emit_bytes")


def probe(cli, workload, seed):
    """Run cycle 0 traced in this fresh process; return its counts."""
    tracer = Tracer()
    payloads = generate(workload, seed, 0)
    emit = 0
    tracer.install(observe=True)
    try:
        for p in payloads:
            tracer.payload = f"{p.cycle}:{p.slot}"
            _, _, text = call_inprocess(cli, p)
            tracer.observe_pending()
            emit += len(text)
    finally:
        tracer.uninstall()
    calls, _, fails, parents = tracer.self_times()
    return {"payloads": len(payloads), "generated": digest("\n".join(p.text for p in payloads)),
            "emit_bytes": emit, "pf_calls": calls["numutil.prime_factors"],
            "calls": calls, "failures": fails, "snf_parents": parents,
            "load_schema_calls": tracer.counts["cli.load_schema"],
            **{k: tracer.observed[k] for k in ("snf_max_entry_bits", "pf_max_input_bits",
                                               "pf_repeats")}}


def steady_probe(workload, seed, env):
    """Probe cycle 0 in two fresh processes and require equal counts."""
    runs = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload",
                               workload, "--seed", str(seed), "--seconds", "0", "--probe"],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            fail(f"probe run failed: {proc.stderr.strip()[-500:]}", 3)
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    a, b = runs
    problems = [f"{k}: {a[k]} != {b[k]}" for k in STEADY if a[k] != b[k]]
    if problems:
        fail("steadiness check failed between two runs of the same seed: "
             + "; ".join(problems), 3)
    return a


def warm_up_set(workload, seed, cold):
    """The shortest payload of each subcommand in the warm-up cycle, so that
    lazy loads (schemas, regular expressions) are done before timing; one
    child for cold-cli.  No timed payload is among them."""
    shortest = {}
    for p in sorted(generate(workload, seed, -1), key=lambda p: len(p.text)):
        if not p.defect:
            shortest.setdefault(p.cmd, p)
    warm = sorted(shortest.values(), key=lambda p: p.slot)
    return warm[:1] if cold else warm


def machine_record(workload, seed, trace):
    try:
        cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                    if line.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor()
    return {"workload": workload, "seed": seed, "trace": trace,
            "python": platform.python_version(), "nproc": os.cpu_count(), "cpu_model": cpu,
            "loadavg_start": list(os.getloadavg())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="limext benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help="run cycle 0 traced and print its counts (used by --trace 1)")
    args = ap.parse_args(argv)
    if not (SRC / "limext" / "cli.py").is_file():
        fail(f"no limext source at {SRC / 'limext'}; run from a repository checkout")
    if not DIGESTS.is_file():
        fail(f"missing {DIGESTS}")
    sys.path.insert(0, str(SRC))
    cold = args.workload == "cold-cli"
    env = child_env()

    if args.probe:
        cli = import_cli()
        for p in warm_up_set(args.workload, args.seed, False):
            call_inprocess(cli, p)
        print(json.dumps(probe(cli, args.workload, args.seed)))
        return 0

    record = machine_record(args.workload, args.seed, args.trace)
    # Set-up: import, generating the first cycle and warm-up, repeated; the
    # median counts.
    setup_times, generations = [], set()
    for _ in range(SETUPS):
        t0 = perf_counter()
        cli = import_cli()
        first = generate(args.workload, args.seed, 0)
        for p in warm_up_set(args.workload, args.seed, cold):
            call_cold(p, env) if cold else call_inprocess(cli, p)
        setup_times.append(perf_counter() - t0)
        generations.add(digest("\n".join(p.text for p in first)))
    if len(generations) != 1:
        fail("payload generation differs between set-ups", 3)
    setup_s = statistics.median(setup_times)
    tally = Tally(args.seed)

    if not args.trace:
        call = (lambda p: call_cold(p, env)) if cold else (lambda p: call_inprocess(cli, p))
        cycles = timed_loop(call, args.workload, args.seed, 0, args.seconds, tally)
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF)
        metrics, info = end_to_end(tally, args.seconds, setup_s, usage.ru_maxrss / 1024)
        tallies = [tally]
    else:
        # Layer spans are recorded in process for every workload, cold-cli
        # included: a cold child runs the same library code after its import,
        # which cli.import_ms measures.  Half the time runs untraced, then
        # fresh cycles run traced.
        call = lambda p: call_inprocess(cli, p)  # noqa: E731
        untraced = Tally(args.seed)
        next_cycle = timed_loop(call, args.workload, args.seed, 0, args.seconds / 2, untraced)
        tracer = Tracer()

        def before(p):
            tracer.payload = f"{p.cycle}:{p.slot}"

        tracer.install(observe=False)
        try:
            cycles = timed_loop(call, args.workload, args.seed, next_cycle, args.seconds / 2,
                                tally, before=before)
        finally:
            tracer.uninstall()
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        counts = steady_probe(args.workload, args.seed, env)
        metrics = layer_metrics(counts, tracer.self_times()[1], len(tally.samples),
                                throughput(untraced), throughput(tally), import_times(env))
        info = {"spans": len(tracer.spans), "traced_from_cycle": next_cycle}
        tallies = [untraced, tally]

    record.update(info, cycles=cycles, payloads_per_cycle=len(first),
                  known_defect_share=sum(p.defect for p in first) / len(first),
                  failures_by_kind=dict(sum((t.failures for t in tallies), Counter())),
                  failure_examples={k: v for t in tallies for k, v in t.examples.items()})
    samples = [s for t in tallies for s in t.samples]
    result = {"correct": all(t.correct for t in tallies),
              "attempted": len(samples),
              "failed": sum(not ok for _, _, ok in samples),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
