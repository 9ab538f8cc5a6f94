#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-analysis --seed 1 --seconds 45 --trace 0

The Go program in this directory is built from source into
.bench_build/perfbench, with its build cache, temporary files and scratch
directories there too, so a run reads and writes only inside the
checkout. Every argument is passed on to the program; the last line of
standard output is the JSON result. A failed build exits nonzero without
printing a result.
"""
import os
import shutil
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build", "perfbench")
    home = os.path.join(build, "home")
    tmp = os.path.join(build, "tmp")
    for d in (home, tmp):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "TMPDIR": tmp,
    })
    go = shutil.which("go", path=env.get("PATH")) or "/usr/local/go/bin/go"
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run([go, "build", "-o", binary, "."], cwd=here, env=env,
                               stdout=sys.stderr, timeout=700)
    except (OSError, subprocess.TimeoutExpired) as err:
        print("perfbench: build: %s" % err, file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary, "--workdir", os.path.join(build, "run")] + sys.argv[1:]
    try:
        return subprocess.run(args, cwd=root, env=env, timeout=175).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
