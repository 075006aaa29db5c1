"""Regenerate the byte-exact goldens from the program as it stands.

Run from the repository root:

    python tests/golden/rewrite.py [--check] [--base OLD_SRC]

It rewrites ``tests/golden/sparse/*.json`` (each corpus problem at a tenth
of its samples, seed offset 1), the digest lines of
``tests/golden/sparse/SHA256SUMS`` and ``tests/golden/SHA256SUMS``, keeping
their comments and order, and prints the two digests pinned in
``tests/test_pipeline.py::test_dissipative_json_report_matches_pinned_sha256``
for a hand edit. For each report it lists the JSON paths whose values
changed against the file it replaces. A digest keeps no report to compare
against, so for those it lists the paths only with ``--base``, the ``src``
directory of another checkout (the parent commit, say), whose reports it
builds in a subprocess.

With ``--check`` it writes nothing and exits 1 if any file would change or
an inline digest differs. It never writes the tolerance snapshots
``tests/golden/*.json`` or ``tests/golden/geodesic/SHA256SUMS``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
ROOT = GOLDEN.parents[1]
SPARSE_SUMS = GOLDEN / "sparse" / "SHA256SUMS"
FULL_SUMS = GOLDEN / "SHA256SUMS"
PINNING_TEST = ROOT / "tests" / "test_pipeline.py"
DISSIPATIVE = ("rayleigh", "damped")


def _digest_lines(path: Path) -> list:
    """The ``(problem, offset)`` of each digest line of ``path``, in order."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return [tuple(line.split()[1:]) for line in lines if line and not line.startswith("#")]


def jobs() -> list:
    """``(key, problem, offset, divisor)`` of every golden report; problem
    is a corpus name or one of DISSIPATIVE."""
    from lagdeform.corpus import CORPUS_NAMES

    out = [(f"sparse/{name}.json", name, 1, 10) for name in CORPUS_NAMES]
    out += [(f"sparse/SHA256SUMS {n} {o}", n, int(o), 10) for n, o in _digest_lines(SPARSE_SUMS)]
    out += [(f"SHA256SUMS {n} {o}", n, int(o), 1) for n, o in _digest_lines(FULL_SUMS)]
    return out + [(f"inline {name}", name, 0, 1) for name in DISSIPATIVE]


def reports() -> dict:
    """Every golden report's text, built by the lagdeform on ``sys.path``."""
    import systems
    from lagdeform.corpus import corpus_text
    from lagdeform.pipeline import emit_report, problem_from_dict, run_pipeline

    out = {}
    for key, problem, offset, divisor in jobs():
        if problem in DISSIPATIVE:
            data = getattr(systems, f"{problem}_problem")()
        else:
            data = json.loads(corpus_text(problem))
            data["sampling"]["count"] //= divisor
            data["sampling"]["seed"] += offset
        out[key] = emit_report(run_pipeline(problem_from_dict(data), mode="report"), "json").decode()
    return out


def changed_paths(old, new, path="") -> list:
    """The JSON paths where ``new`` departs from ``old``."""
    if isinstance(old, dict) and isinstance(new, dict) and set(old) == set(new):
        return [p for key in old for p in changed_paths(old[key], new[key], f"{path}/{key}")]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [p for k, (a, b) in enumerate(zip(old, new)) for p in changed_paths(a, b, f"{path}/{k}")]
    return [] if type(old) is type(new) and old == new else [path or "/"]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _rewrite_sums(path: Path, digests: dict) -> str:
    """``path``'s text with each digest line's sha256 replaced from
    ``digests``, keyed by ``(problem, offset)``."""
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            _, name, offset = line.split()
            line = f"{digests[name, offset]}  {name} {offset}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def _inline_digests() -> dict:
    text = PINNING_TEST.read_text(encoding="utf-8")
    return {name: re.search(rf'\({name}_problem, "([0-9a-f]{{64}})"\)', text).group(1) for name in DISSIPATIVE}


def _base_reports(src: str) -> dict:
    """The golden reports of the lagdeform in ``src``, from a subprocess."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(ROOT / "tests")]))
    run = subprocess.run(
        [sys.executable, __file__, "--emit"], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(run.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="write nothing; exit 1 if a file would change")
    parser.add_argument("--base", metavar="OLD_SRC", help="the src directory to list digest reports' changes against")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:  # the reports of the lagdeform on PYTHONPATH, for --base
        json.dump(reports(), sys.stdout)
        return 0
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    new = reports()
    base = _base_reports(args.base) if args.base else {}
    digests = {}
    files = {}
    for key, text in new.items():
        kind, *rest = key.split()
        if kind.endswith(".json"):
            path = GOLDEN / kind
            old = path.read_text(encoding="utf-8") if path.exists() else base.get(key)
            files[path] = text
        else:
            digests.setdefault(kind, {})[tuple(rest)] = _sha(text)
            old = base.get(key)
        if old is None:
            note = "new" if kind.endswith(".json") else "no old report to compare (see --base)"
        else:
            paths = changed_paths(json.loads(old), json.loads(text))
            note = ", ".join(paths) if paths else "unchanged"
        print(f"{key}: {note}")
    files[SPARSE_SUMS] = _rewrite_sums(SPARSE_SUMS, digests["sparse/SHA256SUMS"])
    files[FULL_SUMS] = _rewrite_sums(FULL_SUMS, digests["SHA256SUMS"])
    stale = [path for path, text in files.items() if not path.exists() or path.read_text(encoding="utf-8") != text]
    pinned = _inline_digests()
    for name in DISSIPATIVE:
        now = digests["inline"][(name,)]
        print(f"{PINNING_TEST.relative_to(ROOT)} {name}: {now}" + ("" if now == pinned[name] else f" (pinned {pinned[name]})"))
    moved = [name for name in DISSIPATIVE if digests["inline"][(name,)] != pinned[name]]
    for path in stale:
        print(f"{'would rewrite' if args.check else 'rewrote'} {path.relative_to(ROOT)}")
        if not args.check:
            path.write_bytes(files[path].encode())
    if moved:
        print(f"edit the inline digests of {', '.join(moved)} by hand")
    return 1 if args.check and (stale or moved) else 0


if __name__ == "__main__":
    sys.exit(main())
