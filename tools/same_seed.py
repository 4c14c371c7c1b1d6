"""Check that same-seed calibwalk runs write byte-identical artifacts.

Usage: PYTHONPATH=SRC python tools/same_seed.py OUT [--against OTHER_OUT]

Runs SRC's ``python -m calibwalk.cli`` in OUT, a new directory.  Each run
tree must equal OUT/a, as must OTHER_OUT/a with ``--against``.  A run that
exits with an unexpected status stops the check and prints its stderr.
"""

import argparse
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np

TRACE_CLI = Path(__file__).resolve().parent.parent / "perfbench/trace_cli.py"
CLI = [sys.executable, "-m", "calibwalk.cli"]
# another Python thread alive, as in a Jupyter kernel: on any host the
# calling process is the pool's one worker and a CSV file is one row range
THREADED = [sys.executable, "-c", """import os, sys, threading
from calibwalk.cli import main
def no_fork(): raise AssertionError('forked with another thread alive')
os.fork = no_fork
threading.Thread(target=threading.Event().wait, daemon=True).start()
sys.exit(main(sys.argv[1:]))"""]

# name -> arguments; each run writes into RUN_DIR/name
RUNS = {
    "test": "test data.csv --mc 200 --seed 3",
    # redrawn at a non-default level
    "alpha": "test data.csv --no-hl --no-lr --alpha 0.01",
    "large": "test large.csv",
    # read by the stream reader, not split into row ranges: equals large
    "large_quoted": "test large_quoted.csv",
    # n above the engine's block: one-row Monte Carlo blocks
    "large_mc": "test large.csv --mc 20 --seed 3",
    # n above 2^17: one-row blocks on several workers
    "mc_large": "test mc_large.csv --mc 20 --seed 3",
    # tied predictions take the stable sort; 8 Monte Carlo blocks
    "tied": "test tied.csv --mc 200 --seed 3",
    # --clamp 0.1 clips both tails into two more tie blocks
    "tied_clamp": "test tied.csv --clamp 0.1",
    "null": "simulate null --beta0 -1 --n 100 --reps 50 --seed 4",
    # n = 1, an odd n, and n above half the 8192-value study block:
    # one-row blocks
    "null_edges":
        "simulate null --beta0 -30 -1 --n 1 7 4099 --reps 30 --seed 2",
    # 3 blocks of up to 163 rows at n = 50, 13 of up to 32 at n = 250:
    # workers split cells
    "null_blocks":
        "simulate null --beta0 -2 -1 --n 50 250 --reps 400 --seed 4",
    # 1100 one-row blocks, over the pool's 1024 claims: a claim holds 1 or 2
    "null_claims": "simulate null --beta0 -1 --n 4099 --reps 1100 --seed 2",
    # the studies run each cell in blocks of replicates
    "power": "simulate power --family logit-power --a 0 0.2 --b 1 1.5 "
             "--n 100 --reps 40 --seed 4",
    # 8 blocks of up to 8 rows per cell: workers split every power cell
    "power_blocks": "simulate power --family logit-power --a 0 0.25 "
                    "--b 1 2 --n 1000 --reps 60 --seed 4",
    # b = 0.2 saturates expit: generated predictions are clipped
    "saturated": "simulate power --family logit-power --a 0 --b 1 0.2 "
                 "--n 100 --reps 20 --seed 4",
    # small n, steep slopes: many separated LR fits, so IRLS non-convergence
    "separated": "simulate power --family logit-linear --a 0 0.5 "
                 "--b 0.5 3 --n 10 30 --reps 300 --seed 4",
    # binned calibration plots
    "case": "casestudy --seed 5 --dev-n 2000 --small-n 200 --holdout-n 800",
}
THREADED_RUNS = ("large", "mc_large", "null_blocks")
BAD_ERROR = "error: non-numeric value 'abc' in column 'p' at row 90001\n"


def write_fixtures():
    rng = np.random.default_rng(1)
    # large: above 4 x plot width, so the walk is M4-decimated; tied: on a
    # 0.01 grid, so tied rows keep their input order; mc_large: above 2^17,
    # where a Monte Carlo block is one row yet several workers fit in memory
    for name, rows in (("data", 2000), ("large", 100_000), ("tied", 5000),
                       ("mc_large", 140_000)):
        p = rng.uniform(0.05, 0.95, rows)
        p = np.round(p, 2) if name == "tied" else p
        np.savetxt(f"{name}.csv", np.column_stack([p, rng.random(rows) < p]),
                   "%.17g,%d", header="p,y", comments="")
    lines = Path("large.csv").read_text().splitlines(keepends=True)
    Path("large_quoted.csv").write_text("".join(
        [lines[0].rstrip() + ",note\n"]
        + [line.rstrip() + ',"a"\n' for line in lines[1:]]))
    # a non-numeric prediction in data row 90001, which a forked worker parses
    lines[90001] = "abc," + lines[90001].split(",")[1]
    Path("bad.csv").write_text("".join(lines))


def run(args, launcher=CLI, expect=0, cpu=None, stdin=None):
    """Run ``args`` on ``cpu`` if given; exit on a status not ``expect``."""
    pin = None if cpu is None else lambda: os.sched_setaffinity(0, {cpu})
    done = subprocess.run(launcher + args.split(), input=stdin,
                          capture_output=True, preexec_fn=pin)
    if done.returncode != expect:
        sys.exit(f"{args}: exit {done.returncode}, not {expect}\n"
                 + done.stderr.decode())
    return done.stderr.decode()


def _json_path(x, y, path=""):
    """The first key path at which two parsed JSON values differ, or None."""
    if isinstance(x, list) and isinstance(y, list):
        x, y = dict(enumerate(x)), dict(enumerate(y))
    if not (isinstance(x, dict) and isinstance(y, dict)):
        return None if x == y else path or "/"
    # KeyError stands for a missing key
    found = (_json_path(x.get(key, KeyError), y.get(key, KeyError),
                        f"{path}/{key}") for key in {**x, **y})
    return next(filter(None, found), None)


def _where(x, y, suffix):
    """The first JSON key path, else byte offset, where two files differ."""
    try:
        found = suffix == ".json" and _json_path(
            *(json.loads(side, parse_constant=str) for side in (x, y)))
    except ValueError:
        found = None
    return found or f"byte {len(os.path.commonprefix([x, y]))}"


def compare(a, b):
    """One line per file that only one of two trees has, or that differs."""
    a, b = Path(a), Path(b)
    lines = []
    for name in sorted({path.relative_to(root) for root in (a, b)
                        for path in root.rglob("*") if path.is_file()}):
        x, y = ((root / name).read_bytes() if (root / name).is_file()
                else None for root in (a, b))
        if x is None or y is None:
            lines.append(f"only in {a if y is None else b}: {name}")
        elif x != y:
            lines.append(f"{a / name} and {b / name} differ at "
                         f"{_where(x, y, name.suffix)}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)
    pairs = [("a", "b"), ("a", "one_cpu"), ("a/large", "a/large_quoted"),
             ("a/large", "piped")]
    pairs += [(f"a/{name}", f"threaded/{name}") for name in THREADED_RUNS]
    pairs += [("a", args.against.resolve() / "a")] if args.against else []
    os.environ["PYTHONPATH"] = os.pathsep.join(map(os.path.abspath, filter(
        None, os.getenv("PYTHONPATH", "").split(os.pathsep))))
    os.environ["CALIBWALK_TIMESTAMP"] = "2024-01-01T00:00:00+00:00"
    args.out.mkdir(parents=True)
    os.chdir(args.out)
    write_fixtures()
    one_cpu = min(os.sched_getaffinity(0))
    # one_cpu: every pool runs one worker, every CSV file is one row range
    for run_dir, names, launcher, cpu in (
            ("a", RUNS, CLI, None), ("b", RUNS, CLI, None),
            ("one_cpu", RUNS, CLI, one_cpu),
            ("threaded", THREADED_RUNS, THREADED, None)):
        for name in names:
            run(f"{RUNS[name]} --out {run_dir}/{name}", launcher, cpu=cpu)
    # a pipe cannot be opened twice: the stream reader reads it once
    run("test /dev/stdin --out piped", stdin=Path("large.csv").read_bytes())
    problems = [line for pair in pairs for line in compare(*pair)]
    for out, cpu in (("bad", None), ("bad_one_cpu", one_cpu)):
        error = run(f"test bad.csv --out {out}", expect=2, cpu=cpu)
        if error != BAD_ERROR or Path(out, "report.json").exists():
            problems.append(f"{out}: {error!r}, want {BAD_ERROR!r}, no report")
    for svg in ("a/large/cumulative_bm.svg", "a/large/cumulative_bb.svg"):
        if (size := Path(svg).stat().st_size) >= 200_000:
            problems.append(f"{svg}: {size} bytes, not under 200 KB")
    # every name in trace_cli.LAYERS must still resolve to patch it
    run("spans.json test data.csv --mc 50 --seed 3 --out traced",
        [sys.executable, str(TRACE_CLI)])
    spans = [s[0] for s in json.loads(Path("spans.json").read_text())["spans"]]
    problems += [f"traced: {spans.count(layer)} spans of {layer}"
                 for layer in runpy.run_path(str(TRACE_CLI))["LAYERS"]
                 if layer.startswith(("data.", "stattests."))
                 and spans.count(layer) != 1]
    print("\n".join(problems) or "same-seed check passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
