#!/usr/bin/env python3
"""Build and run the raw-filter benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke] [--flip-record R]

Configures perfbench/ (which builds the jrf library from src/ in Release)
into $CARGO_TARGET_DIR, or .bench_build when that is unset, builds the
jrf_perfbench binary and runs it. Build output goes to stderr, so the last
line on stdout is its JSON result. The exit code is the binary's:
0 when every check passed. See perfbench/README.md for the workloads and
metrics.
"""
import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("qs0-stream", "fleet-10k", "qt-project", "qs1-service")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_id(root):
    """The git commit when there is one, else a digest of the sources."""
    # The ceiling keeps git from searching the directories above the
    # checkout, so a checkout that is not a repository falls through.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], env=env,
            capture_output=True, text=True, check=True, timeout=10)
        dirty = subprocess.run(
            ["git", "-C", root, "status", "--porcelain", "--", "src",
             "perfbench"], env=env, capture_output=True, text=True,
            timeout=10)
        return out.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, _, filenames in sorted(os.walk(os.path.join(root, top))):
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-" + digest.hexdigest()[:16]


def run(cmd, **kwargs):
    """Run a child to completion; never leave it behind."""
    child = subprocess.Popen(cmd, **kwargs)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, for the self-test")
    parser.add_argument("--flip-record", type=int, default=-1,
                        help="invert this record's verdict in the bench's "
                             "sink (self-test of the checks)")
    args = parser.parse_args()

    root = os.getcwd()
    bench_dir = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("run from the repository root: src/ (the jrf sources) is missing")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.relpath(os.path.abspath(build_root), root)
    if build_root.startswith(".."):
        fail(f"build directory {build_root} is outside the checkout")
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.abspath(os.path.join(build_root, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)

    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if run(["cmake", "-S", bench_dir, "-B", build_dir,
                "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr,
               env=env) != 0:
            fail("cmake configure failed")
    if run(["cmake", "--build", build_dir, "--target", "jrf_perfbench",
            "-j", jobs], stdout=sys.stderr, env=env) != 0:
        fail("build failed")

    binary = os.path.join(build_dir, "jrf_perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--source-id", source_id(root), "--out-dir", build_root,
           "--flip-record", str(args.flip_record)]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    sys.exit(run(cmd, env=env))


if __name__ == "__main__":
    main()
