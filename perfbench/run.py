#!/usr/bin/env python3
"""genlift benchmark.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Workloads: battery, orbits-q19, aut-q13
(see perfbench/README.md).  One caller, one operation at a time:
worker processes (worker.py) run one after the other, each a fresh
interpreter with GENLIFT_CACHE_DIR pointing at a directory private to the
run.

Metric names and units come from BENCHMARK.json at the root of the
checkout.  A run makes as many rounds as fit in --seconds, at least one.
A round is a cold pass in a fresh interpreter and then warm passes (see
Run.round).  Set-up probes then top the run up to SETUP_SAMPLES processes.
With --trace 0 the run reports the end-to-end metrics: setup_s (median
interpreter start plus `import genlift`), wall_s (median cold pass),
warm_s (median warm pass) and peak_rss_mb (largest ru_maxrss of any
process).  With --trace 1 it runs one untraced cold pass, then one traced
round, and reports the per-layer metrics from the traced round's spans.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exits 2 without that line if
the genlift sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import spans  # noqa: E402

SPEC = ROOT / "BENCHMARK.json"
# processes per run, counting set-up probes, that setup_s is a median of
SETUP_SAMPLES = 11
# warm passes per round of a library workload (default 1).  An orbits-q19
# warm pass takes about 1.5 s and a run holds one round, so ten passes let
# warm_s see some 15 s of the host's speed, which swings by 20 % within 10 s
WARM_PASSES = {"orbits-q19": 10}
PROCESS_TIMEOUT_S = 150

# timing fields that may differ between a cold and a warm battery report
_VOLATILE = re.compile(r'("(?:elapsed_ms|cache_hit)": )[^,\n]*')


@dataclass
class PassResult:
    """One pass: timed seconds, operations attempted, how many of them
    failed (an error, a refusal, a non-zero exit or an output that does
    not match), one line per problem found, and the pass's tag."""

    elapsed_s: float
    ops: int
    failed: int
    problems: list
    tag: str = ""


@dataclass
class Process:
    """The parsed result line of one worker process."""

    setup_s: float
    maxrss_kb: int
    passes: list
    missing: list


def spawn(spec: dict, env: dict) -> Process | None:
    """Run one worker to the end; None if it printed no result."""
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"worker {spec['passes']} timed out", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker {spec['passes']} exited {proc.returncode}", file=sys.stderr)
        return None
    try:
        data = json.loads(lines[-1])
    except ValueError:
        print(f"worker {spec['passes']} printed no result", file=sys.stderr)
        return None
    return Process(
        setup_s=data["imported_at"] - spawned_at,
        maxrss_kb=data["maxrss_kb"],
        passes=[PassResult(**p) for p in data.get("passes", [])],
        missing=data.get("missing", []),
    )


class Run:
    """One benchmark run: its processes, their passes, its private directory."""

    def __init__(self, workload: str, seed: int, run_dir: Path):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.processes: list[Process] = []
        self.passes: list[PassResult] = []  # and the battery report comparisons
        self.problems: list[str] = []

    @property
    def spans_path(self) -> Path:
        return OUT / f"trace-{self.workload}-seed{self.seed}.jsonl"

    def spawn(self, tags: list[str], round_dir: Path, trace: bool = False) -> list[PassResult]:
        """One fresh interpreter running the passes `tags` in order."""
        round_dir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, GENLIFT_CACHE_DIR=str(round_dir / "cache"))
        spec = {
            "workload": self.workload, "seed": self.seed, "passes": tags,
            "workdir": str(round_dir), "trace": trace,
            "spans": str(self.spans_path),
        }
        proc = spawn(spec, env)
        if proc is None:
            # a broken set-up probe counts as one failed operation too
            passes = [PassResult(0.0, 1, 1, ["worker printed no result"], tag) for tag in tags or ["setup"]]
        else:
            self.processes.append(proc)
            passes = proc.passes
        self.passes += passes
        self.problems += [f"{p.tag}: {line}" for p in passes for line in p.problems]
        return passes

    def round(self, index: int, trace: bool = False) -> tuple[PassResult, list[PassResult]]:
        """A cold pass and its warm passes.

        `battery` runs the command line, so each pass is a new process and
        the warm one finds the cache the cold one wrote.  The other
        workloads call the library, so each warm pass repeats the call in
        the cold pass's process, after its module memos are filled.
        """
        round_dir = self.run_dir / f"round{index}"
        tags = [f"cold{index}", f"warm{index}"]
        if self.workload != "battery":
            # a traced round makes one warm pass, so that the warm passes'
            # group builds do not outweigh the cold pass in the layer sums
            warm_passes = 1 if trace else WARM_PASSES.get(self.workload, 1)
            tags[1:] = [f"warm{index}-{k}" for k in range(warm_passes)]
            cold, *warms = self.spawn(tags, round_dir, trace)
            return cold, warms
        (cold,) = self.spawn(tags[:1], round_dir, trace)
        (warm,) = self.spawn(tags[1:], round_dir, trace)
        same = same_report(round_dir / tags[0] / "report.json", round_dir / tags[1] / "report.json")
        self.passes.append(PassResult(0.0, 1, int(not same), [], f"compare{index}"))
        if not same:
            self.problems.append(f"round {index}: cold and warm reports differ")
        return cold, [warm]

    @property
    def attempted(self) -> int:
        return sum(p.ops for p in self.passes)

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.passes)


def same_report(cold: Path, warm: Path) -> bool:
    """Byte-identical apart from the values of elapsed_ms and cache_hit."""
    try:
        a, b = cold.read_text(encoding="utf-8"), warm.read_text(encoding="utf-8")
    except OSError:
        return False
    return _VOLATILE.sub(r"\1_", a) == _VOLATILE.sub(r"\1_", b)


def spec_units(kind: str) -> dict:
    """name -> unit of the BENCHMARK.json metrics of `kind`: end_to_end or per_layer."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def measure(run: Run, seconds: int) -> dict:
    """As many rounds as fit in `seconds`, at least one; end-to-end metrics."""
    t0 = time.monotonic()
    colds, warms = [], []
    while True:
        started = time.monotonic()
        cold, round_warms = run.round(len(colds))
        colds.append(cold)
        warms += round_warms
        now = time.monotonic()
        # start another round only if it should end within `seconds` too
        if now - t0 + (now - started) > seconds:
            break
    for _ in range(SETUP_SAMPLES - len(run.processes)):
        run.spawn([], run.run_dir / "setup")
    procs = run.processes
    samples = {
        "setup_s": (statistics.median(p.setup_s for p in procs) if procs else 0.0, len(procs)),
        "wall_s": (statistics.median(p.elapsed_s for p in colds), len(colds)),
        "warm_s": (statistics.median(p.elapsed_s for p in warms), len(warms)),
        "peak_rss_mb": (max((p.maxrss_kb for p in procs), default=0) / 1024, len(procs)),
    }
    return {name: (*samples[name], unit) for name, unit in spec_units("end_to_end").items()}


def measure_traced(run: Run) -> dict:
    """One untraced cold pass, one traced round; per-layer metrics."""
    run.spans_path.unlink(missing_ok=True)
    (reference,) = run.spawn(["untraced"], run.run_dir / "untraced")
    cold, _warms = run.round(0, trace=True)
    span_list = []
    if run.spans_path.exists():
        with open(run.spans_path, encoding="utf-8") as fh:
            span_list = [spans.Span(**json.loads(line)) for line in fh]
    values = spans.rollup(span_list)
    values["trace.overhead_s"] = cold.elapsed_s - reference.elapsed_s
    missing = sorted({name for p in run.processes for name in p.missing})
    if missing:
        print("traced names not found, skipped: " + ", ".join(missing), file=sys.stderr)
    return {name: (values[name], 1, unit) for name, unit in spec_units("per_layer").items()}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    workloads = [w["name"] for w in json.loads(SPEC.read_text(encoding="utf-8"))["workloads"]]
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be 1..60")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "genlift" / "__init__.py").is_file():
        print(f"genlift sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed, Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)))
    try:
        metrics = measure_traced(run) if args.trace else measure(run, args.seconds)
    finally:
        shutil.rmtree(run.run_dir, ignore_errors=True)
    for line in run.problems:
        print(f"problem: {line}", file=sys.stderr)
    for name, (value, samples, unit) in metrics.items():
        print(f"{args.workload:<11} {name:<36} {value:>14.6g} {unit:<5} n={samples}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, _n, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
