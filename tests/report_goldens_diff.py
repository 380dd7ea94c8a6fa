"""Show how the `verify` report goldens in tests/data differ from a git
revision's.

    python tests/report_goldens_diff.py REV

Prints every check added to a suite (+) or removed from it (-), and every
check whose ``detail`` text changed, each with its suite and name.  Exits 1
if a report differs from REV's in anything else: a key, the order of the
checks both revisions have, or a ``passed`` flag.
"""
import json
import subprocess
import sys
from pathlib import Path

DATA = Path(__file__).parent / "data"


def _suites(report):
    return report.get("suites", [report])


def main(rev: str) -> int:
    other = 0
    for path in sorted(DATA.glob("verify-*.json")):
        old = json.loads(subprocess.run(
            ["git", "show", f"{rev}:tests/data/{path.name}"], check=True,
            capture_output=True, text=True, cwd=DATA).stdout)
        new = json.loads(path.read_text())
        for a, b in zip(_suites(old), _suites(new)):
            names = {c["name"] for c in a["checks"]}, {c["name"] for c in b["checks"]}
            for sign, report, others in (("-", a, names[1]), ("+", b, names[0])):
                for check in report["checks"]:
                    if check["name"] not in others:
                        print(f"{path.name}: {report['suite']}: {sign} {check['name']}: "
                              f"{check['detail']!r}")
                # what is left is compared below
                report["checks"] = [c for c in report["checks"] if c["name"] in others]
            for ca, cb in zip(a["checks"], b["checks"]):
                if ca["name"] == cb["name"] and ca["detail"] != cb["detail"]:
                    print(f"{path.name}: {a['suite']}: {ca['name']}: "
                          f"{ca['detail']!r} -> {cb['detail']!r}")
                    ca["detail"] = cb["detail"]
        if old != new:
            print(f"{path.name}: differs outside the added, removed and detail text")
            other += 1
    return 1 if other else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
