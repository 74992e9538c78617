"""Mutation testing of src/wavetomo with the standard library only.

    python tests/mutate.py [--seed 0] [--count 15] [--only NAME] greens.py [simulate.py ...]

Each mutant changes one operator or constant of one module:
``+``/``-`` and ``*``/``/`` swap (augmented assignments too), ``and``/``or``
swap, ``<``/``<=``, ``>``/``>=`` and ``==``/``!=`` swap, an int constant c
becomes c + 1 and a float c becomes 2c (0.0 becomes 1.0); strings,
docstrings among them, are left alone.  Per module a seeded sample of ``--count`` mutation sites is
drawn (all sites with ``--count 0``); ``--only`` keeps the sites inside the
named top-level functions or classes.  The repository is copied once into a
temporary directory, and each mutant runs the tier-1 suite there with ``-x``
and criterion 4's slow oracle deselected.  A mutant the suite fails on (or
that runs past ``TIMEOUT`` seconds) is killed; the others survived, and
whether a survivor is equivalent, computing the same results, is for a
reader to judge.  The unmutated suite must pass first, or the script exits
1.  The name does not match ``test_*.py``, so pytest does not collect this
file.
"""

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PYTEST = ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
          "--continue-on-collection-errors",
          "--deselect", "tests/test_acceptance.py::test_criterion_4_tv_prox_oracle"]
# seconds after which a mutant's suite run counts as killed: the unmutated
# suite, like a surviving mutant, takes well under a minute
TIMEOUT = 600.0
SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
         ast.And: ast.Or, ast.Or: ast.And, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
         ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}


def _owners(tree):
    """{id(node): name of the top-level def or class it sits in}."""
    owner = {}
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            for node in ast.walk(top):
                owner[id(node)] = top.name
    return owner


def _bump(c):
    """c + 1 for an int, 2c for a nonzero float and 1.0 for 0.0."""
    if type(c) is int:
        return c + 1
    return 2 * c if c else 1.0


def sites(tree):
    """(node, what) per mutation site, in ``ast.walk`` order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)):
            if type(node.op) in SWAPS:
                found.append((node, f"{type(node.op).__name__} -> "
                                    f"{SWAPS[type(node.op)].__name__}"))
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    found.append((node, f"{type(op).__name__} -> "
                                        f"{SWAPS[type(op)].__name__} #{i}"))
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            found.append((node, f"{node.value!r} -> {_bump(node.value)!r}"))
    return found


def mutant(source, index):
    """``source`` with site ``index`` mutated, and the site's line and change."""
    tree = ast.parse(source)
    node, what = sites(tree)[index]
    if isinstance(node, ast.Compare):
        i = int(what.rsplit("#", 1)[1])
        node.ops[i] = SWAPS[type(node.ops[i])]()
    elif isinstance(node, ast.Constant):
        node.value = _bump(node.value)
    else:
        node.op = SWAPS[type(node.op)]()
    return ast.unparse(tree), node.lineno, what


def run_suite(workdir):
    """(outcome, seconds) of the tier-1 suite in ``workdir``."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"))
    tic = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, *PYTEST], cwd=workdir, env=env,
                              capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "killed (timeout)", time.perf_counter() - tic
    return ("survived" if done.returncode == 0 else "killed"), time.perf_counter() - tic


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("modules", nargs="+", help="file names under src/wavetomo")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=15)
    p.add_argument("--only", action="append", default=[],
                   help="keep the sites in this top-level function or class")
    args = p.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="wavetomo-mutate-") as tmp:
        workdir = Path(tmp) / "repo"
        shutil.copytree(ROOT, workdir, ignore=shutil.ignore_patterns(
            ".git", ".bench_out", "__pycache__", ".pytest_cache", ".hypothesis"))
        outcome, seconds = run_suite(workdir)
        if outcome != "survived":
            print(f"the unmutated suite fails ({seconds:.1f} s): nothing to measure")
            return 1
        for name in args.modules:
            path = workdir / "src" / "wavetomo" / name
            source = path.read_text()
            tree = ast.parse(source)
            owner = _owners(tree)
            candidates = [i for i, (node, _) in enumerate(sites(tree))
                          if not args.only or owner.get(id(node)) in args.only]
            rng = random.Random(f"{args.seed}:{name}")
            count = len(candidates) if args.count <= 0 else min(args.count, len(candidates))
            chosen = sorted(rng.sample(candidates, count))
            tally = {}
            try:
                for index in chosen:
                    text, line, what = mutant(source, index)
                    path.write_text(text)
                    outcome, seconds = run_suite(workdir)
                    tally[outcome.split()[0]] = tally.get(outcome.split()[0], 0) + 1
                    print(f"{name}:{line} {what}: {outcome} ({seconds:.1f} s)", flush=True)
            finally:
                path.write_text(source)
            print(f"{name}: {len(chosen)} of {len(candidates)} sites, "
                  f"{tally.get('killed', 0)} killed, {tally.get('survived', 0)} survived",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
