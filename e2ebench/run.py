#!/usr/bin/env python3
"""End-to-end GLOVA benchmark entry point (see README.md beside this file).

    python3 e2ebench/run.py --workload glova-behavioral --seed 1 --seconds 30 --trace 0

Builds the benchmark program from the source tree this directory sits in (into
.bench_build/e2ebench, or $CARGO_TARGET_DIR/e2ebench), runs one workload and
passes its output through.  The last line of standard output is the result
JSON; the same line, with the machine and build context, is also saved under
<build>/results/.  Exits non-zero without a result when the build or the run
fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build(out_dir):
    """Configure and build the benchmark binary (both no-ops when up to date);
    returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out_dir, "--target", "glova_e2e", "-j", jobs]]
    # Keep the compiler's temporary files inside the build tree as well.
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if proc.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    return os.path.join(out_dir, "glova_e2e")


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=["glova-behavioral", "glova-spice", "mc-signoff"])
    ap.add_argument("--seed", type=int, required=True, help="orders the jobs of a pass")
    ap.add_argument("--seconds", type=float, required=True, help="measuring time")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--seed-offset", type=int, default=0,
                    help="shift every session seed and draw seed (unseen-seed re-runs)")
    ap.add_argument("--short", action="store_true", help="tiny job lists (self-check)")
    args = ap.parse_args()

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, RuntimeError) as e:
        log(str(e))
        return 1

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--seed-offset", str(args.seed_offset), "--commit", git_commit()]
    if args.trace:
        cmd += ["--trace-out", os.path.join(results, f"spans-{tag}.json")]
    if args.short:
        cmd.append("--short")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        log(f"benchmark exited with {proc.returncode}")
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log("benchmark printed no result line")
        return 1
    context = next((json.loads(l[len("context "):]) for l in lines if l.startswith("context ")),
                   {})
    with open(os.path.join(results, f"{tag}.json"), "w") as f:
        json.dump({"context": context, "result": result}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
