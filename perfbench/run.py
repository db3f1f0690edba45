#!/usr/bin/env python3
"""Build the benchmark and the `nuchase` binary from source, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. Cargo builds into `$CARGO_TARGET_DIR`
(default `.bench_build`); sockets, program files and span dumps go to
`perfbench/out/`. The last line of standard output is the JSON result;
the exit code is nonzero when the build fails, an output check fails, or
the result does not name exactly the metrics `BENCHMARK.json` declares.
"""

import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "-p", "perfbench", "-p", "nuchase-cli",
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")


def run(binary, args):
    """Runs the benchmark in its own process group, so a timeout also
    stops the `nuchase serve` children it started."""
    proc = subprocess.Popen(
        [binary, *args], cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"the run did not finish within {RUN_TIMEOUT_S} s")
    return proc.returncode, out


def check_names(result, traced):
    """The result must carry exactly the metrics BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer" if traced else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"metrics {sorted(set(got) ^ set(want))} differ between the result and BENCHMARK.json")


def main():
    args = sys.argv[1:]
    if "--trace" in args and args.index("--trace") + 1 < len(args):
        traced = args[args.index("--trace") + 1] == "1"
    else:
        traced = False
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    build(target)
    release = os.path.join(target, "release")
    code, out = run(
        os.path.join(release, "perfbench"),
        args + ["--nuchase", os.path.join(release, "nuchase"), "--out", os.path.join("perfbench", "out")],
    )
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        sys.exit(code or 1)
    check_names(json.loads(lines[-1]), traced)


if __name__ == "__main__":
    main()
