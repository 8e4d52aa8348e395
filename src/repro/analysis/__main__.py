"""CLI: ``python -m repro.analysis [paths...]``.

Exit status 0 when the tree is clean, 1 when any finding survives
suppression — so CI can gate on it directly; 2 on a usage error,
including a path that does not exist.  ``--format json`` (plus
``--out``) emits a machine-readable findings artifact.  The linter
writes no other file.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from .engine import lint_paths
from .rules import ALL_RULES

__all__ = ["main"]


def _rule_catalogue() -> dict:
    rules = {cls.rule_id: cls.description for cls in ALL_RULES}
    rules["SUP001"] = "suppression without a justification"
    rules["SUP002"] = "suppression whose rule never fires"
    return rules


def _findings_json(paths: list[str], findings) -> dict:
    return {
        "tool": "repro.analysis",
        "schema_version": 3,
        "paths": paths,
        "rules": _rule_catalogue(),
        "total": len(findings),
        "counts": dict(sorted(Counter(f.rule for f in findings).items())),
        "findings": [f.to_dict() for f in findings],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="FT-Cache concurrency & determinism linter",
    )
    parser.add_argument("paths", nargs="*", default=["src", "tests"],
                        help="files or directories to lint (default: src tests)")
    parser.add_argument("--format", choices=("human", "json"), default="human")
    parser.add_argument("--out", metavar="FILE",
                        help="also write the JSON findings artifact to FILE")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, description in _rule_catalogue().items():
            print(f"{rule_id}  {description}")
        return 0

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        parser.error(f"no such path: {', '.join(missing)}")

    findings = lint_paths(args.paths)
    payload = _findings_json(list(args.paths), findings)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for f in findings:
            print(f.format_human())
        n = len(findings)
        print(f"repro.analysis: {n} finding{'s' if n != 1 else ''} "
              f"in {len(args.paths)} path(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
