"""Run one perfbench workload, or all of them, and report the metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in a child process of its own (workloads.py), so its
peak memory is its own.  A human-readable table goes first; the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  With --all the last line maps each workload to
such an object.  The exit code is 0 only when every op passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("relative-golden", "basis-ladder", "vanish-sphere", "cli-roundtrip")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 28
CHILD_TIMEOUT_S = 170


def run_child(workload, seed, seconds, trace):
    """The child's result object, or None when it did not produce one."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    # A session of its own, so a timeout also ends the fibera processes
    # that cli-roundtrip starts.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)

    def stop(signum, frame):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise SystemExit(128 + signum)

    previous = {s: signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: {workload} timed out after {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    finally:
        for s, handler in previous.items():
            signal.signal(s, handler)
    lines = out.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: {workload} exited with code {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def print_table(workload, res):
    info = res.get("info", {})
    print(f"{workload}: attempted {res['attempted']}, failed {res['failed']}")
    for name, m in res["metrics"].items():
        note = ""
        if name == "op_tail_ms":
            note = (f"  (p{info['op_tail_percentile']:.1f} of "
                    f"{info['samples']} samples)")
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}{note}")
    if "fail_frac" in info:
        print(f"  {'fail_frac':40s} {info['fail_frac']:>14.6g} ratio  "
              f"(failed / attempted)")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOADS)
    which.add_argument("--all", action="store_true")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fibera" / "__init__.py").is_file():
        print(f"perfbench: no fibera sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.all else (args.workload,)
    results = {}
    for name in names:
        res = run_child(name, args.seed, args.seconds, args.trace)
        if res is None:
            return 1
        print_table(name, res)
        results[name] = {k: res[k] for k in ("correct", "attempted", "failed",
                                              "metrics")}
    print(json.dumps(results if args.all else results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
