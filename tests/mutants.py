"""Mutation runs: apply one catalogued edit to a copy of the tree and report which tier-1 tests fail.

Kept out of tier-1: pytest collects only ``test_*.py``. Run it from anywhere::

    python tests/mutants.py                         # the unmutated tree, then every mutant
    python tests/mutants.py fold-log-scale-halved   # the unmutated tree, then the named mutants
    python tests/mutants.py --first-failure         # each mutant's run stops at its first failure
    python tests/mutants.py --list

Each catalogue entry is ``(name, file, old text, new text)``. The old text
must occur exactly once in its file, so an entry whose target a refactor
has removed stops the run instead of passing silently. For each mutant the
tree (without ``.git`` and caches) is copied to a temporary directory, the
edit is applied there, and the tier-1 command runs on the copy. The report
lists the tests that fail on the mutant but not on the unmutated copy; a
mutant that fails none is a survivor. Nothing beyond pytest is needed.

With ``--first-failure`` the unmutated tree still runs in full, and each
mutant's run leaves out the unmutated tree's failures and stops at its
first failing test. A caught mutant is then reported with that one test;
the caught or survivor verdicts are those of the full run, in less time.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: (name, file relative to the repository root, exact old text, new text)
CATALOGUE = (
    (
        "fold-eigenvalues-snapped",
        "src/seqmeas/kraus.py",
        "log_amplitude_at(sigmas[:, None], xs[:, None], observable.eigenvalues)",
        "log_amplitude_at(sigmas[:, None], xs[:, None], np.round(observable.eigenvalues, 9))",
    ),
    (
        "change-of-basis-u-swapped",
        "src/seqmeas/chain.py",
        "np.multiply.outer(u.conj(), u)",
        "np.multiply.outer(u, u.conj())",
    ),
    (
        "rotation-operator-transposed",
        "src/seqmeas/chain.py",
        "np.multiply.outer(u.conj(), u).swapaxes(1, 2).reshape(u.size, u.size)\n",
        "np.multiply.outer(u.conj(), u).swapaxes(1, 2).reshape(u.size, u.size).T\n",
    ),
    (
        "effect-steps-not-inverted",
        "src/seqmeas/chain.py",
        "backs = tuple(None if step is None else step.conj().T for step in steps)",
        "backs = steps",
    ),
    (
        "effect-folded-in-forward-order",
        "src/seqmeas/chain.py",
        "observables[later][::-1], outcomes[:, ::-1], sigmas[:, later][:, ::-1],",
        "observables[later], outcomes, sigmas[:, later],",
    ),
    (
        "fold-without-hermitian-part",
        "src/seqmeas/kraus.py",
        "(matrices + matrices.swapaxes(-1, -2).conj())",
        "(2.0 * matrices)",
    ),
    (
        "fold-log-scale-halved",
        "src/seqmeas/kraus.py",
        "log_scale + 2.0 * top",
        "log_scale + top",
    ),
    (
        "fold-top-without-diagonal",
        "src/seqmeas/kraus.py",
        "top = (logs + 0.5 * np.log(np.maximum(diagonal, 1e-300))).max(axis=-1)",
        "top = logs.max(axis=-1)",
    ),
    (
        "jackknife-se-tripled",
        "src/seqmeas/oracle.py",
        "    return float(variance), se\n",
        "    return float(variance), 3.0 * se\n",
    ),
    (
        "coefficients-not-transposed",
        "src/seqmeas/chain.py",
        "coeffs = rho[:n] * effect.swapaxes(-1, -2)",
        "coeffs = rho[:n] * effect",
    ),
    (
        "config-observable-conjugated",
        "src/seqmeas/cli.py",
        "        if matrix is not None and np.isfinite(matrix).all():\n            return matrix\n",
        "        if matrix is not None and np.isfinite(matrix).all():\n            return matrix.conj()\n",
    ),
    (
        "config-observable-transposed",
        "src/seqmeas/cli.py",
        "        if matrix is not None and np.isfinite(matrix).all():\n            return matrix\n",
        "        if matrix is not None and np.isfinite(matrix).all():\n            return matrix.T\n",
    ),
    (
        "first-update-without-imaginary-half",
        "src/seqmeas/oracle.py",
        "np.concatenate([kernel[:, :d], kernel[:, d : p.size] + kernel[:, p.size :]], axis=1)",
        "np.concatenate([kernel[:, :d], kernel[:, d : p.size]], axis=1)",
    ),
    (
        "last-rotation-wrong-rows",
        "src/seqmeas/oracle.py",
        "rotations[-1] = rotations[-1][:d]",
        "rotations[-1] = rotations[-1][-d:]",
    ),
    (
        "sampler-amplitude-width-halved",
        "src/seqmeas/oracle.py",
        "    out /= -(4.0 * stage.sigma**2)\n",
        "    out /= -(2.0 * stage.sigma**2)\n",
    ),
    (
        # the renormalisation's totals stay at the workspace's full width, which
        # a short last block's columns do not fill
        "short-block-totals-full-width",
        "src/seqmeas/oracle.py",
        "states /= states[:d].sum(axis=0, out=totals[:c])",
        "states /= states[:d].sum(axis=0, out=totals)",
    ),
    (
        # every block of a chunk picks with the first block's uniforms
        "block-draws-not-offset",
        "src/seqmeas/oracle.py",
        "_pick_components(uniforms[j, cols],",
        "_pick_components(uniforms[j, :c],",
    ),
    (
        "mixture-midpoint-at-left-center",
        "src/seqmeas/pointer.py",
        "return weights, 0.5 * (eigenvalues[p] + eigenvalues[q])",
        "return weights, eigenvalues[p]",
    ),
    (
        "mixture-overlap-width-halved",
        "src/seqmeas/pointer.py",
        "np.exp(-(gap * gap) / ((8.0 * width) * width))",
        "np.exp(-(gap * gap) / ((4.0 * width) * width))",
    ),
    (
        "fig4-forward-free-index",
        "src/seqmeas/cli.py",
        "two_stage_rows(rho0, (sz, sx), 1, x2, sigmas, r)",
        "two_stage_rows(rho0, (sz, sx), 2, x2, sigmas, r)",
    ),
)

IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", "_work", "_out")


def copy_tree(dest: Path) -> Path:
    tree = dest / "tree"
    shutil.copytree(REPO, tree, ignore=IGNORED)
    return tree


def apply(tree: Path, path: str, old: str, new: str) -> None:
    target = tree / path
    text = target.read_text()
    count = text.count(old)
    if count != 1:
        raise SystemExit(f"{path}: the old text occurs {count} times, expected once:\n{old}")
    target.write_text(text.replace(old, new))


def failing_tests(tree: Path, options=()) -> set[str]:
    """The tier-1 command on ``tree``, plus ``options``; returns the ids pytest reports as failed or errored."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run(
        # -W as in CI's tier-1 step, so a mutant is judged by that step's checks
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", "-W", "error::RuntimeWarning",
         "--continue-on-collection-errors", *options],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    failed = set()
    for line in done.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            failed.add(line.split()[1])
    if done.returncode not in (0, 1) or (done.returncode == 1 and not failed):
        raise SystemExit(f"pytest exited with {done.returncode}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the catalogue and exit")
    parser.add_argument(
        "--first-failure", action="store_true", help="stop each mutant's run at its first new failing test"
    )
    args = parser.parse_args(argv)
    known = {entry[0]: entry for entry in CATALOGUE}
    if args.list:
        for name, path, _, _ in CATALOGUE:
            print(f"{name}  ({path})")
        return 0
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    chosen = [known[name] for name in args.names] if args.names else list(CATALOGUE)

    with tempfile.TemporaryDirectory(prefix="seqmeas-mutants-") as scratch:
        baseline = failing_tests(copy_tree(Path(scratch) / "baseline"))
        print(f"unmutated: {len(baseline)} failing" + "".join(f"\n    {t}" for t in sorted(baseline)), flush=True)
        # a failing test id is deselected; a module that failed to collect is ignored
        options = ["-x"] + [f"--deselect={t}" if "::" in t else f"--ignore={t}" for t in sorted(baseline)]
        survivors = []
        for name, path, old, new in chosen:
            tree = copy_tree(Path(scratch) / name)
            apply(tree, path, old, new)
            caught = sorted(failing_tests(tree, options if args.first_failure else ()) - baseline)
            if not caught:
                survivors.append(name)
            print(f"{name}: {len(caught)} failing" + "".join(f"\n    {t}" for t in caught), flush=True)
            shutil.rmtree(tree)
    print(f"survivors: {', '.join(survivors) if survivors else 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
