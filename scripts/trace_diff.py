"""Compare two trace.jsonl files field by field.

OLD and NEW are two trace.jsonl files, or two directories of run outputs
whose subdirectories (each holding a trace.jsonl) are matched by name.
For every trace the script prints one line: its line count, then each
field that moved with the largest relative difference |a - b| / max(|a|,
|b|) over its float values and the step_index of the first line where it
differs, then the fields that are identical in every line. A field that
differs anywhere but in a float value (an int, a string, a null, a list's
length) is marked DIFFERS.

With `--max-rel X`, a field whose float values moved by more than X
relative is marked `OVER X`.

Exit status: 0 when every trace has the same line count and every
non-float value matches (float values may move, by at most X under
`--max-rel X`); 1 otherwise, when a run directory is present on one side
only, or when no trace matched.

Run from the repository root:

    python scripts/trace_diff.py OLD NEW [--max-rel X]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DIFFERS = "DIFFERS"
_MISSING = object()  # a field absent from one side's line


def _traces(path: Path) -> dict[str, Path]:
    """Trace files by name: a file is one unnamed trace; a directory gives each subdirectory's trace."""
    if path.is_file():
        return {"": path}
    return {sub.name: sub / "trace.jsonl" for sub in sorted(path.iterdir()) if (sub / "trace.jsonl").is_file()}


def _value_diff(a, b) -> float | str:
    """Largest relative difference between two float leaves of a and b; DIFFERS if anything else differs."""
    if isinstance(a, float) and isinstance(b, float):
        return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        diffs = [_value_diff(x, y) for x, y in zip(a, b)]
        return DIFFERS if DIFFERS in diffs else max(diffs, default=0.0)
    return 0.0 if type(a) is type(b) and a == b else DIFFERS


def compare(old: Path, new: Path) -> tuple[int, int, dict[str, float | str], dict[str, int]]:
    """Line counts of both traces, each field's status over the lines they share, and the step_index of the
    first shared line where each moved field differs."""
    old_lines = [json.loads(line) for line in old.read_text().splitlines()]
    new_lines = [json.loads(line) for line in new.read_text().splitlines()]
    status: dict[str, float | str] = {}
    first: dict[str, int] = {}
    for a, b in zip(old_lines, new_lines):
        for name in sorted(a.keys() | b.keys()):
            d = _value_diff(a.get(name, _MISSING), b.get(name, _MISSING))
            if d != 0.0:
                first.setdefault(name, a.get("step_index"))
            prev = status.get(name, 0.0)
            status[name] = DIFFERS if DIFFERS in (d, prev) else max(d, prev)
    return len(old_lines), len(new_lines), status, first


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--max-rel", type=float, metavar="X", help="fail when a float moved by more than X relative")
    args = parser.parse_args(argv)
    old, new = _traces(args.old), _traces(args.new)
    ok = bool(old.keys() & new.keys())  # comparing no trace at all is no pass
    for name in sorted(old.keys() ^ new.keys()):
        print(f"{name}: only in {'OLD' if name in old else 'NEW'}")
        ok = False
    for name in sorted(old.keys() & new.keys()):
        n_old, n_new, status, first = compare(old[name], new[name])
        over = {f for f, s in status.items() if args.max_rel is not None and s != DIFFERS and s > args.max_rel}
        ok &= n_old == n_new and DIFFERS not in status.values() and not over
        lines = f"{n_old} lines" if n_old == n_new else f"{n_old} vs {n_new} lines, {DIFFERS}"
        moved = [f"{f} {s if s == DIFFERS else f'{s:.1e}'} from step {first[f]}"
                 + (f" OVER {args.max_rel:g}" if f in over else "") for f, s in status.items() if s != 0.0]
        same = [f for f, s in status.items() if s == 0.0]
        print(f"{name or args.new} ({lines}): {'; '.join(moved + ['identical: ' + ', '.join(same)])}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
