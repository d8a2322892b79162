"""Self-test of the benchmark itself; finishes in seconds.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that

- a smoke size of every workload (generic m=7, shift-stable m=9, pooled
  n=2 m=8 in four chunks, a two-row verify grid) passes its output checks
  and reports exactly the end-to-end or the per-layer metric names;
- a deliberately wrong expected tally is reported as a failure (``correct``
  false, exit code 1), not as a pass;
- in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
  benchmark exits nonzero without printing a result.
"""

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

import run
from workloads import SMOKE

HERE = os.path.dirname(os.path.abspath(__file__))


def run_quiet(argv, table):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv, table=table, smoke=True)
    return code, json.loads(buf.getvalue().strip().splitlines()[-1])


def args(name, trace):
    return ["--workload", name, "--seed", "7", "--seconds", "0",
            "--trace", str(trace)]


def main() -> int:
    bad = []

    def report(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            bad.append(what)

    for name in SMOKE:
        for trace in (0, 1):
            code, res = run_quiet(args(name, trace), SMOKE)
            want = run.PER_LAYER if trace else run.END_TO_END
            report(code == 0 and res["correct"] and res["failed"] == 0
                   and res["attempted"] > 0 and set(res["metrics"]) == set(want),
                   f"smoke {name} trace {trace}: {res['attempted']} checks")

    good = SMOKE["scan-generic"]
    wrong_expected = {lead: dict(t) for lead, t in good.expected.items()}
    wrong_expected[2][2] += 1
    wrong = dataclasses.replace(good, expected=wrong_expected)
    code, res = run_quiet(args(good.name, 0), dict(SMOKE, **{good.name: wrong}))
    report(code == 1 and not res["correct"] and res["failed"] == 1,
           "a wrong expected tally is reported as one failure")

    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-",
                                     dir=os.getcwd()) as bare:
        shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, "perfbench/run.py"] + args("verify", 0),
            cwd=bare, capture_output=True, text=True, timeout=120)
        report(out.returncode != 0 and not out.stdout.strip(),
               f"no source tree: exit {out.returncode}, no result printed")

    print("selftest:", "FAILED " + "; ".join(bad) if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
