"""Passes of one workload, in one fresh interpreter.

run.py starts this script once per process:

    python3 perfbench/worker.py '<json spec>'

The spec names the workload, seed, the tags of the passes to run one
after the other, the round directory (each pass works in
``<round dir>/<tag>``), whether to trace, and where to write spans.  The
last line of standard output is a JSON object with one entry per pass
(timed seconds, operations attempted and failed, problems found), the
process's ru_maxrss, and the monotonic clock reading taken right after
`import genlift`, which run.py turns into a set-up time.  With no passes
the process stops after the import.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import genlift  # noqa: E402

IMPORTED_AT = time.monotonic()


def main(argv: list[str]) -> int:
    if not Path(genlift.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"genlift imported from {genlift.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(argv[1])
    out = {"imported_at": IMPORTED_AT}
    if spec["passes"]:
        out.update(run_passes(spec))
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


def run_passes(spec: dict) -> dict:
    sys.path.insert(0, str(HERE))
    import spans
    import workloads
    from run import PassResult

    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer(spec["passes"][0])
        tracer.install()
    name = spec["workload"]
    results = []
    for tag in spec["passes"]:
        if tracer is not None:
            tracer.run_id = tag
        timer = workloads.Timer(tracer)
        workdir = Path(spec["workdir"]) / tag
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            result = workloads.WORKLOADS[name](spec["seed"], workdir, timer)
        except Exception as exc:  # a failing pass is a result, never a crash
            traceback.print_exc(file=sys.stderr)
            ops = workloads.OPS[name]
            result = PassResult(timer.elapsed, ops, ops, [f"{type(exc).__name__}: {exc}"])
        result.tag = tag
        results.append(result.__dict__)
    out = {"passes": results}
    if tracer is not None:
        with open(spec["spans"], "a", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s.to_dict()) + "\n")
        out["missing"] = tracer.missing
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv))
